#include "tbf/scenario/wlan.h"

#include <algorithm>

#include "tbf/scenario/cell.h"
#include "tbf/util/logging.h"

namespace tbf::scenario {

Wlan::Wlan(ScenarioConfig config) : config_(config) {}

Wlan::~Wlan() = default;

StationSpec& Wlan::AddStation(NodeId id, phy::WifiRate rate, double per) {
  StationSpec spec;
  spec.id = id;
  spec.rate = rate;
  spec.per = per;
  return AddStation(spec);
}

StationSpec& Wlan::AddStation(StationSpec spec) {
  TBF_CHECK(!built_) << "AddStation after Run";
  station_specs_.push_back(spec);  // Id bounds etc. are checked by ValidateScenario.
  return station_specs_.back();
}

FlowSpec& Wlan::AddFlow(FlowSpec spec) {
  TBF_CHECK(!built_) << "AddFlow after Run";
  flow_specs_.push_back(spec);
  return flow_specs_.back();
}

FlowSpec& Wlan::AddBulkTcp(NodeId client, Direction direction) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kTcp;
  return AddFlow(spec);
}

FlowSpec& Wlan::AddSaturatingUdp(NodeId client, Direction direction) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kUdp;
  spec.udp_rate = Mbps(9);  // Above any single DSSS link's capacity.
  return AddFlow(spec);
}

FlowSpec& Wlan::AddWebOnOff(NodeId client, Direction direction) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kTcp;
  spec.model = TrafficModel::kOnOffWeb;
  return AddFlow(spec);
}

FlowSpec& Wlan::AddTaskSequence(NodeId client, Direction direction, int64_t bytes,
                                int count) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kTcp;
  spec.model = TrafficModel::kTaskSequence;
  spec.task_bytes = bytes;
  spec.task_count = count;
  return AddFlow(spec);
}

FlowSpec MakeTraceReplaySpec(const trace::ReplayFlow& flow, Transport transport) {
  FlowSpec spec;
  spec.client = flow.node;
  spec.direction = flow.downlink ? Direction::kDownlink : Direction::kUplink;
  spec.transport = transport;
  spec.model = TrafficModel::kTraceReplay;
  spec.replay = flow.tasks;
  return spec;
}

FlowSpec& Wlan::AddTraceReplay(const trace::ReplayFlow& flow, Transport transport) {
  return AddFlow(MakeTraceReplaySpec(flow, transport));
}

namespace {

// Appends printf-free formatted context for one flow's diagnostic.
std::string FlowTag(size_t index, const FlowSpec& spec) {
  return "flow #" + std::to_string(index) + " (client " + std::to_string(spec.client) + ")";
}

}  // namespace

std::string ValidateScenario(const ScenarioConfig& config,
                             const std::vector<StationSpec>& stations,
                             const std::vector<FlowSpec>& flows) {
  if (config.duration <= 0) {
    return "config: duration must be > 0";
  }
  if (config.warmup < 0) {
    return "config: warmup must be >= 0";
  }
  if (config.wired_rate <= 0) {
    return "config: wired_rate must be > 0";
  }
  if (config.wired_delay < 0) {
    return "config: wired_delay must be >= 0";
  }
  if (config.fifo_limit == 0) {
    return "config: fifo_limit must be > 0";
  }
  if (config.per_queue_limit == 0) {
    return "config: per_queue_limit must be > 0";
  }
  if (config.timings.slot <= 0 || config.timings.sifs < 0) {
    return "config: MAC timings need slot > 0 and sifs >= 0";
  }
  if (config.timings.cw_min < 1 || config.timings.cw_max < config.timings.cw_min) {
    return "config: contention window needs 1 <= cw_min <= cw_max";
  }
  if (config.timings.retry_limit < 1) {
    return "config: retry_limit must be >= 1";
  }
  if (IsTbrKind(config.qdisc)) {
    const core::TbrConfig& tbr = config.tbr;
    if (tbr.fill_period <= 0 || tbr.bucket_depth <= 0 || tbr.initial_tokens < 0) {
      return "config: TBR needs fill_period > 0, bucket_depth > 0, initial_tokens >= 0";
    }
    if (tbr.enable_rate_adjust &&
        (tbr.adjust_period <= 0 || tbr.adjust_threshold <= 0.0 || tbr.min_rate <= 0.0)) {
      return "config: TBR rate adjust needs adjust_period > 0, adjust_threshold > 0, "
             "min_rate > 0";
    }
    if (tbr.per_queue_limit == 0) {
      return "config: TBR per_queue_limit must be > 0";
    }
    if (tbr.contention_contenders < 0) {
      return "config: TBR contention_contenders must be >= 0 (0 = associated count)";
    }
    switch (TbrModeForKind(config.qdisc, tbr.mode)) {
      case core::TbrMode::kStock:
        break;
      case core::TbrMode::kBurstCredit:
        if (tbr.burst_credit < 0) {
          return "config: TBR burst_credit must be >= 0";
        }
        break;
      case core::TbrMode::kFastEwma:
        if (tbr.demand_period <= 0 || tbr.demand_alpha <= 0.0 ||
            tbr.demand_alpha > 1.0 || tbr.demand_active_threshold < 0.0) {
          return "config: TBR fast-EWMA needs demand_period > 0, demand_alpha in "
                 "(0, 1], demand_active_threshold >= 0";
        }
        break;
      case core::TbrMode::kCreditHybrid:
        if (tbr.hybrid_debt_cap < 0) {
          return "config: TBR hybrid_debt_cap must be >= 0";
        }
        break;
    }
  }

  if (stations.size() >= static_cast<size_t>(kServerId)) {
    return "stations: at most " + std::to_string(kServerId - 1) + " clients fit below "
           "kServerId";
  }
  std::vector<NodeId> seen;
  seen.reserve(stations.size());
  for (size_t i = 0; i < stations.size(); ++i) {
    const StationSpec& s = stations[i];
    const std::string tag = "station #" + std::to_string(i) + " (id " +
                            std::to_string(s.id) + ")";
    if (s.id <= 0 || s.id >= kServerId) {
      return tag + ": client ids must be in (0, " + std::to_string(kServerId) + ")";
    }
    if (std::find(seen.begin(), seen.end(), s.id) != seen.end()) {
      return tag + ": duplicate station id";
    }
    seen.push_back(s.id);
    if (!(s.per >= 0.0 && s.per <= 1.0)) {  // NaN fails the conjunction.
      return tag + ": per must be in [0, 1]";
    }
    if (s.snr_db < 0.0) {
      return tag + ": snr_db must be >= 0 (0 disables the SNR model)";
    }
    if (s.queue_limit == 0) {
      return tag + ": queue_limit must be > 0";
    }
  }

  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (std::find(seen.begin(), seen.end(), f.client) == seen.end()) {
      return FlowTag(i, f) + ": references an undeclared station";
    }
    const int header = f.transport == Transport::kTcp ? net::kIpTcpHeaderBytes
                                                      : net::kIpUdpHeaderBytes;
    if (f.packet_bytes <= header) {
      return FlowTag(i, f) + ": packet_bytes must exceed the " +
             std::to_string(header) + "-byte transport header";
    }
    if (f.transport == Transport::kUdp && f.udp_rate <= 0) {
      return FlowTag(i, f) + ": UDP flows need udp_rate > 0";
    }
    if (f.app_limit_bps < 0) {
      return FlowTag(i, f) + ": app_limit_bps must be >= 0";
    }
    if (f.start < 0) {
      return FlowTag(i, f) + ": start must be >= 0";
    }
    switch (f.model) {
      case TrafficModel::kBulk:
        if (f.task_bytes < 0) {
          return FlowTag(i, f) + ": task_bytes must be >= 0 (0 = unbounded)";
        }
        break;
      case TrafficModel::kTaskSequence:
        if (f.task_bytes <= 0 || f.task_count <= 0) {
          return FlowTag(i, f) + ": task sequences need task_bytes > 0 and "
                 "task_count > 0";
        }
        if (f.task_gap < 0) {
          return FlowTag(i, f) + ": task_gap must be >= 0";
        }
        break;
      case TrafficModel::kOnOffWeb:
        if (f.onoff.mean_flow_bytes < 1.0 || f.onoff.pareto_alpha <= 1.0 ||
            f.onoff.mean_think_sec < 0.0) {
          return FlowTag(i, f) + ": on/off sources need mean_flow_bytes >= 1, "
                 "pareto_alpha > 1, mean_think_sec >= 0";
        }
        break;
      case TrafficModel::kTraceReplay:
        if (f.replay.empty()) {
          return FlowTag(i, f) + ": trace replay flows need logged tasks";
        }
        for (size_t t = 0; t < f.replay.size(); ++t) {
          if (f.replay[t].bytes <= 0) {
            return FlowTag(i, f) + ": replay task #" + std::to_string(t) +
                   " must carry bytes";
          }
          if (t > 0 && f.replay[t].at < f.replay[t - 1].at) {
            return FlowTag(i, f) + ": replay tasks must be in trace order";
          }
        }
        break;
    }
  }
  return std::string();
}

std::unique_ptr<ap::Qdisc> MakeQdisc(const ScenarioConfig& config, sim::Simulator* sim,
                                     rateadapt::CompositeRateController* rates,
                                     core::TimeBasedRegulator** tbr_out) {
  switch (config.qdisc) {
    case QdiscKind::kFifo:
      return std::make_unique<ap::FifoQdisc>(config.fifo_limit);
    case QdiscKind::kRoundRobin:
      return std::make_unique<ap::RoundRobinQdisc>(config.per_queue_limit);
    case QdiscKind::kDrr:
      return std::make_unique<ap::DrrQdisc>(config.per_queue_limit);
    case QdiscKind::kOarBurst:
      // OAR-style comparison baseline: bursts sized by the client's current rate.
      return std::make_unique<ap::BurstRoundRobinQdisc>(
          [rates](NodeId client) { return phy::GetRateInfo(rates->CurrentRate(client)).bps; },
          Mbps(1), config.per_queue_limit);
    case QdiscKind::kTbr:
    case QdiscKind::kTbrBurstCredit:
    case QdiscKind::kTbrFastEwma:
    case QdiscKind::kTbrCreditHybrid: {
      core::TbrConfig tbr_config = config.tbr;
      tbr_config.mode = TbrModeForKind(config.qdisc, config.tbr.mode);
      auto tbr = std::make_unique<core::TimeBasedRegulator>(sim, config.timings,
                                                            tbr_config);
      *tbr_out = tbr.get();
      return tbr;
    }
  }
  return nullptr;
}

void Wlan::Build() {
  TBF_CHECK(!built_);
  if (std::string err = ValidateScenario(config_, station_specs_, flow_specs_);
      !err.empty()) {
    throw ScenarioError("invalid scenario: " + err);
  }
  built_ = true;

  wired_ = std::make_unique<net::WiredLink>(&sim_, config_.wired_rate, config_.wired_delay);
  net::WiredLink* wired = wired_.get();
  cell_ = std::make_unique<Cell>(
      &sim_, &packet_pool_, config_, station_specs_, config_.seed,
      [wired](net::PacketPtr p) { wired->SendTowardServer(std::move(p)); });
  Cell* cell = cell_.get();
  wired_->SetTowardAp(
      [cell](net::PacketPtr p) { cell->ap().EnqueueDownlink(std::move(p)); });
  // A single cell is not a merge-tree child and its sim time is monotone, so older
  // windows can never receive another sample: seal them as soon as a later one opens,
  // keeping open-sketch memory O(1) instead of O(run length / window).
  cell->stats().SetAutoSeal(true);
  server_ = std::make_unique<net::WiredHost>(&sim_, kServerId, &cell->demux(), wired);

  // The server end of every flow runs in the cell's own shard.
  FlowSide server;
  server.sim = &sim_;
  server.pool = &packet_pool_;
  server.demux = &cell->demux();
  server.rng = &cell->rng();
  server.stats = &cell->stats();
  net::WiredHost* host = server_.get();
  server.send = [host](net::PacketPtr p) { host->SendPacket(std::move(p)); };
  int next_flow_id = 1;
  for (const FlowSpec& spec : flow_specs_) {
    cell->AddFlow(spec, next_flow_id++, server);
  }
}

core::TimeBasedRegulator* Wlan::tbr() {
  return cell_ != nullptr ? cell_->tbr() : nullptr;
}

mac::Medium* Wlan::medium() { return cell_ != nullptr ? &cell_->medium() : nullptr; }

net::WirelessHost* Wlan::host(NodeId id) {
  return cell_ != nullptr ? cell_->host(id) : nullptr;
}

const stats::StatsEngine& Wlan::stats_engine() const {
  static const stats::StatsEngine kUnbuilt;
  return cell_ != nullptr ? cell_->stats() : kUnbuilt;
}

void Wlan::BuildNow() {
  if (!built_) {
    Build();
  }
}

Results Wlan::Run() {
  if (!built_) {
    Build();
  }
  sim_.RunUntil(config_.warmup);
  cell_->SnapshotWarmup();
  sim_.RunUntil(config_.warmup + config_.duration);

  stats::StatsEngine& engine = cell_->stats();
  engine.FlushAll();
  Results results;
  cell_->ReadOut(config_.duration, &results);
  // Legacy exact mode: the cell-wide sketches are the per-flow merges, exactly the
  // pre-engine readout. Streaming modes: replace them with the engine's whole-run
  // meters (the per-flow merge covers retained flows only), which are complete here
  // because every flow end runs in this one shard.
  if (engine.HasCompleteMeters()) {
    results.rtt_sketch = engine.meter(stats::kRtt);
    results.ap_queue_delay_sketch = engine.meter(stats::kQueueDelay);
    results.task_latency_sketch = engine.meter(stats::kTaskLatency);
    results.rtt = LatencySummary::FromSketch(results.rtt_sketch);
    results.ap_queue_delay = LatencySummary::FromSketch(results.ap_queue_delay_sketch);
    results.task_latency = LatencySummary::FromSketch(results.task_latency_sketch);
  }
  return results;
}

}  // namespace tbf::scenario
