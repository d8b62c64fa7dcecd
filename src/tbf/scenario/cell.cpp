#include "tbf/scenario/cell.h"

#include "tbf/util/logging.h"

namespace tbf::scenario {

Cell::Cell(sim::Simulator* sim, net::PacketPool* pool, const ScenarioConfig& config,
           const std::vector<StationSpec>& stations, uint64_t seed,
           ap::AccessPoint::ForwardFn uplink)
    : sim_(sim),
      pool_(pool),
      stats_(config.stats),
      rng_(seed),
      loss_(&fixed_loss_, &snr_loss_),
      medium_(sim, config.timings, &loss_, &rng_),
      ap_(sim, &medium_, MakeQdisc(config, sim, &ap_rates_, &tbr_), &ap_rates_) {
  ap_.SetUplinkForward(std::move(uplink));

  for (const StationSpec& spec : stations) {
    if (spec.snr_db != 0.0) {
      snr_loss_.SetClientSnr(spec.id, spec.snr_db);
    } else if (spec.per > 0.0) {
      fixed_loss_.SetClientPer(spec.id, spec.per);
    }
    std::unique_ptr<rateadapt::RateController> client_rates;
    if (spec.arf) {
      rateadapt::ArfConfig arf;
      arf.initial_rate = spec.rate;
      auto ctrl = std::make_unique<rateadapt::ArfController>(arf);
      ctrl->Seed(kApId, spec.rate);
      client_rates = std::move(ctrl);
      ap_rates_.MarkAdaptive(spec.id, spec.rate);
    } else {
      client_rates = std::make_unique<rateadapt::FixedRateController>(spec.rate);
      ap_rates_.PinRate(spec.id, spec.rate);
    }
    hosts_.emplace(spec.id, std::make_unique<net::WirelessHost>(
                                sim, &medium_, spec.id, std::move(client_rates), &demux_,
                                spec.queue_limit));
    ap_.Associate(spec.id);
  }

  // Pin the contention-allowance divisor to the declared cell size so per-packet
  // charges never depend on association order. Identical to the legacy associated-
  // count divisor here, because the loop above associates every station upfront.
  if (tbr_ != nullptr && config.tbr.contention_contenders == 0) {
    tbr_->SetContentionContenders(static_cast<int>(stations.size()));
  }

  if (tbr_ != nullptr && config.tbr.client_agent) {
    tbr_->SetClientPauseFn([this](NodeId client, TimeNs until) {
      if (net::WirelessHost* h = host(client); h != nullptr) {
        h->PauseUplinkUntil(until);
      }
    });
  }

  // AP qdisc residency tap: attribute each transmitted packet's queueing delay to its
  // flow's meter (the engine drops ids it never registered). The tap fires only in
  // this cell's shard, so the engine keeps exactly one writing thread.
  ap_.SetQueueDelayFn([this](int flow_id, NodeId /*client*/, TimeNs delay) {
    stats_.RecordQueueDelay(flow_id, sim_->Now(), delay);
  });
}

net::WirelessHost* Cell::host(NodeId id) {
  auto it = hosts_.find(id);
  return it == hosts_.end() ? nullptr : it->second.get();
}

void Cell::AddFlow(const FlowSpec& spec, int flow_id, const FlowSide& wired) {
  net::WirelessHost* station = host(spec.client);
  TBF_CHECK(station != nullptr) << "flow references unknown station " << spec.client;
  FlowSide cell;
  cell.sim = sim_;
  cell.pool = pool_;
  cell.demux = &demux_;
  cell.rng = &rng_;
  cell.stats = &stats_;
  cell.send = [station](net::PacketPtr p) { station->SendPacket(std::move(p)); };

  flows_.push_back(std::make_unique<FlowEngine>());
  FlowEngine* flow = flows_.back().get();
  flow->spec = spec;
  flow->flow_id = flow_id;
  WireFlow(flow, cell, wired);
}

void Cell::SnapshotWarmup() {
  airtime_at_warmup_ = medium_.airtime_meter().by_node();
  busy_at_warmup_ = medium_.busy_time();
  for (const std::unique_ptr<FlowEngine>& flow : flows_) {
    flow->window_snapshot = flow->delivered_bytes;
  }
}

void Cell::ReadOut(TimeNs duration, Results* out) const {
  TimeNs total_airtime_delta = 0;
  std::map<NodeId, TimeNs> airtime_delta;
  for (const auto& [node, t] : medium_.airtime_meter().by_node()) {
    auto before = airtime_at_warmup_.find(node);
    const TimeNs dt = t - (before == airtime_at_warmup_.end() ? 0 : before->second);
    airtime_delta[node] = dt;
    total_airtime_delta += dt;
  }
  for (const auto& [node, dt] : airtime_delta) {
    out->airtime_share[node] =
        total_airtime_delta > 0
            ? static_cast<double>(dt) / static_cast<double>(total_airtime_delta)
            : 0.0;
  }

  double sum_task_sec = 0.0;
  int64_t table1_tasks = 0;
  for (const std::unique_ptr<FlowEngine>& flow : flows_) {
    AccumulateFlowResult(*flow, ToSeconds(duration), stats_, out, &sum_task_sec,
                         &table1_tasks);
  }
  if (table1_tasks > 0) {
    out->avg_task_time_sec = sum_task_sec / static_cast<double>(table1_tasks);
  }
  out->rtt = LatencySummary::FromSketch(out->rtt_sketch);
  out->ap_queue_delay = LatencySummary::FromSketch(out->ap_queue_delay_sketch);
  out->task_latency = LatencySummary::FromSketch(out->task_latency_sketch);
  out->rtt_series = stats_.series(stats::kRtt);
  out->ap_queue_delay_series = stats_.series(stats::kQueueDelay);
  out->task_latency_series = stats_.series(stats::kTaskLatency);
  out->goodput_series = stats_.bytes_series();

  out->utilization =
      static_cast<double>(medium_.busy_time() - busy_at_warmup_) / duration;
  out->mac_collisions = medium_.collisions();
  out->mac_exchanges = medium_.exchanges();
  out->ap_drops = ap_.downlink_drops();
}

}  // namespace tbf::scenario
