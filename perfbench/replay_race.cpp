// replay_race: residence-style captures, generated in set-up, each replayed through the
// full cell under FIFO, stock TBR and the three adaptive TBR modes. The only workload
// with heavy-tailed transfers that arrive on a schedule: it exercises TCP task
// restarts, per-task metrology (windowed StatsEngine, every flow retained), the
// adaptive scheduler paths and trace recovery. Its sojourn percentiles are what
// scheduler changes claim. An op is one full race on one capture.
#include <algorithm>
#include <string>
#include <vector>

#include "tbf/sim/random.h"
#include "tbf/trace/generators.h"
#include "tbf/trace/replay.h"
#include "workload.h"

namespace perfbench {
namespace {

using tbf::NodeId;
using tbf::phy::WifiRate;
using tbf::scenario::QdiscKind;

// Many short captures rather than fewer long ones: model.task_p95_s is a median over
// captures of each capture's p95 sojourn, and a capture's p95 hangs on its few large
// transfers. Over 20 seeds its quartile spread was 20% with 64 captures of 120 s and
// 14% with 128 of 60 s, at about the same host time per round.
constexpr int kCaptures = 128;
constexpr int kUsers = 8;
constexpr tbf::TimeNs kCaptureLength = tbf::Sec(60);
// Replays run past the last logged arrival for at least kDrainTime, and for at least
// kDrainFactor times the longest flow's logged bytes at its station's PHY rate: a
// heavy-tailed capture can log one transfer that a slow station under stock TBR needs
// minutes to finish, and every policy must deliver every logged byte. TBR leaves a
// backlogged station at least its 1/kUsers share of airtime, and TCP over 802.11b
// carries roughly half the PHY rate or more in goodput (about 55% at 11 Mbit/s), so
// 2 * kUsers times the bytes at the PHY rate covers a flow's finish even at that
// share. (Stock TBR took 6.6x on one capture of seed 105: a lone 12.4 MB download at
// 2 Mbit/s ran 327 s, against 103 s under FIFO.)
constexpr tbf::TimeNs kDrainTime = tbf::Sec(180);
constexpr double kDrainFactor = 2.0 * kUsers;

constexpr QdiscKind kRace[] = {QdiscKind::kFifo, QdiscKind::kTbr, QdiscKind::kTbrBurstCredit,
                               QdiscKind::kTbrFastEwma, QdiscKind::kTbrCreditHybrid};
constexpr const char* kRaceNames[] = {"fifo", "tbr", "tbr_burst", "tbr_fast", "tbr_hybrid"};
constexpr int kRaceSize = 5;
constexpr int kStockTbr = 1;
constexpr int kFifo = 0;

// The capture's users sit at mixed distances from the AP (bench_trace_replay's mix).
WifiRate RateFor(NodeId node) {
  switch (node) {
    case 2:
      return WifiRate::k1Mbps;
    case 5:
      return WifiRate::k2Mbps;
    case 7:
      return WifiRate::k5_5Mbps;
    default:
      return WifiRate::k11Mbps;
  }
}

struct Capture {
  std::vector<tbf::trace::ReplayFlow> flows;
  std::vector<tbf::sweep::ScenarioJob> race;  // One job per kRace entry.
};

class ReplayRace final : public Workload {
 public:
  void Setup(uint64_t seed, const std::string& /*scratch_dir*/) override {
    tbf::sim::Rng seeds(seed);
    captures_.clear();
    double generate_s = 0.0;
    double recover_s = 0.0;
    int64_t frames = 0;
    int64_t transfers = 0;
    for (int c = 0; c < kCaptures; ++c) {
      tbf::trace::ResidenceConfig config;
      config.duration = kCaptureLength;
      config.users = kUsers;
      config.mean_flow_bytes = 256.0 * 1024.0;
      config.mean_think_sec = 15.0;
      config.ap_capacity_bps = 3.5e6;
      tbf::sim::Rng rng(seeds.engine()());

      Clock::time_point start = Clock::now();
      tbf::trace::TraceLog log;
      {
        Span span("trace.GenerateResidenceTrace");
        log = tbf::trace::GenerateResidenceTrace(config, rng);
      }
      generate_s += SecondsSince(start);
      start = Clock::now();
      std::unique_ptr<tbf::trace::TraceReplaySource> recovered;
      {
        Span span("trace.TraceReplaySource");
        recovered = std::make_unique<tbf::trace::TraceReplaySource>(log);
      }
      recover_s += SecondsSince(start);
      const tbf::trace::TraceReplaySource& source = *recovered;
      frames += static_cast<int64_t>(log.size());

      Capture capture;
      capture.flows = source.flows();
      const uint64_t scenario_seed = seeds.engine()();
      tbf::TimeNs drain = kDrainTime;
      for (const tbf::trace::ReplayFlow& flow : source.flows()) {
        const double bps = static_cast<double>(tbf::phy::GetRateInfo(RateFor(flow.node)).bps);
        drain = std::max(drain, static_cast<tbf::TimeNs>(kDrainFactor * flow.total_bytes *
                                                         8.0 / bps * 1e9));
      }
      for (const QdiscKind kind : kRace) {
        tbf::sweep::ScenarioJob job;
        job.config.qdisc = kind;
        job.config.seed = scenario_seed;
        job.config.warmup = 0;  // Latency is per transfer, not windowed.
        job.config.duration = source.last_arrival() + drain;
        job.config.stats.window = tbf::Sec(1);  // Windowed; top_k 0 keeps every flow.
        for (NodeId id = 1; id <= kUsers; ++id) {
          tbf::scenario::StationSpec station;
          station.id = id;
          station.rate = RateFor(id);
          job.stations.push_back(station);
        }
        for (const tbf::trace::ReplayFlow& flow : source.flows()) {
          job.flows.push_back(tbf::scenario::MakeTraceReplaySpec(flow));
          transfers += static_cast<int64_t>(flow.tasks.size());
        }
        capture.race.push_back(std::move(job));
      }
      captures_.push_back(std::move(capture));
    }
    setup_ = {generate_s * 1e3, recover_s * 1e3, static_cast<double>(frames),
              static_cast<double>(transfers / kRaceSize)};
    built_ = DeclareAndBuild(captures_[0].race[0]);
  }

  int RoundSize() const override { return kCaptures; }
  std::string OpName(int index) const override {
    return "replay_race#" + std::to_string(index);
  }
  double Run(int index, bool traced) override {
    const Capture& capture = captures_[static_cast<size_t>(index)];
    double sim_seconds = 0.0;
    for (int k = 0; k < kRaceSize; ++k) {
      const tbf::sweep::ScenarioJob& job = capture.race[static_cast<size_t>(k)];
      runs_[k] = RunScenario(job, k == 0 ? std::move(built_) : nullptr, traced);
      sim_seconds += tbf::ToSeconds(job.config.warmup + job.config.duration);
    }
    return sim_seconds;
  }

  uint64_t Finish(int index, bool first, bool traced) override {
    const Capture& capture = captures_[static_cast<size_t>(index)];
    uint64_t digest = kFnvOffset;
    for (int k = 0; k < kRaceSize; ++k) {
      const tbf::scenario::Results& r = runs_[k].results;
      const std::string name = OpName(index) + "/" + kRaceNames[k];
      CheckReplay(capture, r, name);
      digest = DigestResults(r, digest);
    }
    if (first) {
      const tbf::scenario::Results& tbr = runs_[kStockTbr].results;
      model_.AddOp(tbr.aggregate_bps, TaskDurations(tbr));
    }
    if (traced) {
      for (int k = 0; k < kRaceSize; ++k) {
        AddScenarioLayers(runs_[k], &layers_);
      }
      const ScenarioRun& tbr = runs_[kStockTbr];
      const ScenarioRun& fifo = runs_[kFifo];
      layers_.Add("_tbr.run_s", tbr.run_s);
      layers_.Add("_tbr.exchanges", static_cast<double>(tbr.results.mac_exchanges));
      layers_.Add("_fifo.run_s", fifo.run_s);
      layers_.Add("_fifo.exchanges", static_cast<double>(fifo.results.mac_exchanges));
      layers_.Add("stats.sketch_merge_us", TimeSketchMerges(tbr.results) * 1e6);
      // Set-up readings: one value per run, reported as is.
      layers_.Max("trace.generate_ms", setup_.generate_ms);
      layers_.Max("trace.recover_ms", setup_.recover_ms);
      layers_.Max("trace.frames", setup_.frames);
      layers_.Max("trace.transfers", setup_.transfers);
      layers_.CountOp();
    }
    return digest;
  }

  const ModelPool& model() const override { return model_; }

  const LayerTotals& layers() const override { return layers_; }

 private:
  // Checks one scheduler's replay against the capture it replayed.
  static void CheckReplay(const Capture& capture, const tbf::scenario::Results& r,
                          const std::string& name) {
    Require(r.flows.size() == capture.flows.size(),
            name + ": " + std::to_string(r.flows.size()) + " flow results for " +
                std::to_string(capture.flows.size()) + " logged flows");
    std::vector<double> durations;
    for (size_t f = 0; f < capture.flows.size(); ++f) {
      const tbf::trace::ReplayFlow& logged = capture.flows[f];
      const tbf::scenario::FlowResult& got = r.flows[f];
      const std::string flow_name = name + " node " + std::to_string(logged.node) +
                                    (logged.downlink ? " down" : " up");
      Require(got.client == logged.node, flow_name + ": result is for node " +
                                             std::to_string(got.client));
      Require(got.bytes_delivered == logged.total_bytes,
              flow_name + ": delivered " + std::to_string(got.bytes_delivered) + " of " +
                  std::to_string(logged.total_bytes) + " logged bytes");
      Require(got.task_durations.size() == logged.tasks.size(),
              flow_name + ": " + std::to_string(got.task_durations.size()) + " of " +
                  std::to_string(logged.tasks.size()) + " logged transfers completed");
      // A replayed transfer runs sequentially after its predecessor, so durations come
      // back in logged order. None can beat its bytes at the station's PHY rate.
      const double bps = static_cast<double>(tbf::phy::GetRateInfo(RateFor(logged.node)).bps);
      for (size_t t = 0; t < logged.tasks.size(); ++t) {
        const double floor_ns = logged.tasks[t].bytes * 8.0 / bps * 1e9;
        const tbf::TimeNs took = got.task_durations[t];
        Require(static_cast<double>(took) >= floor_ns,
                flow_name + ": transfer " + std::to_string(t) + " took " +
                    std::to_string(took) + " ns, under the PHY-rate floor " +
                    std::to_string(floor_ns) + " ns");
        durations.push_back(static_cast<double>(took));
      }
    }
    RequireSketchWithinBound(r.task_latency, r.task_latency_sketch.relative_error(),
                             std::move(durations), name + " task latency");
  }

  std::vector<Capture> captures_;
  std::unique_ptr<tbf::scenario::Wlan> built_;
  ScenarioRun runs_[kRaceSize];
  struct {
    double generate_ms = 0.0;
    double recover_ms = 0.0;
    double frames = 0.0;
    double transfers = 0.0;
  } setup_;

  ModelPool model_;
  LayerTotals layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeReplayRace() { return std::make_unique<ReplayRace>(); }

}  // namespace perfbench
