// cell_saturated: the paper's Fig. 8/9 setting at scale. One 802.11b cell of 64
// stations, 16 at each of 1/2/5.5/11 Mbit/s; every station carries one saturating TCP
// flow, half uplink (unbounded bulk) and half downlink (back-to-back 64 KB chunks on
// one connection, so the cell also meters per-chunk latency). The AP runs stock TBR;
// metrology is windowed (1 s) with every flow retained. Almost all host time goes to
// the event kernel, the DCF medium, TBR and TCP.
#include <cmath>
#include <string>
#include <vector>

#include "tbf/model/baseline.h"
#include "tbf/model/fairness_model.h"
#include "tbf/sim/random.h"
#include "workload.h"

namespace perfbench {
namespace {

using tbf::NodeId;
using tbf::phy::WifiRate;
using tbf::scenario::Direction;
using tbf::scenario::QdiscKind;

constexpr int kStations = 64;
constexpr int kRoundOps = 4;
constexpr tbf::TimeNs kWarmup = tbf::Sec(5);
constexpr tbf::TimeNs kDuration = tbf::Sec(300);
constexpr int64_t kChunkBytes = 64 * 1024;
// Each station's airtime share must lie within this fraction of the fair 1/N.
constexpr double kAirtimeBand = 0.5;

constexpr WifiRate kRates[] = {WifiRate::k1Mbps, WifiRate::k2Mbps, WifiRate::k5_5Mbps,
                               WifiRate::k11Mbps};

class CellSaturated final : public Workload {
 public:
  void Setup(uint64_t seed, const std::string& /*scratch_dir*/) override {
    tbf::sim::Rng rng(seed);
    jobs_.clear();
    for (int op = 0; op < kRoundOps; ++op) {
      // The same 64 (rate, direction) slots every op - 8 up and 8 down per rate -
      // dealt to station ids in a seeded order.
      std::vector<std::pair<WifiRate, Direction>> slots;
      for (int i = 0; i < kStations; ++i) {
        slots.push_back({kRates[i % 4], (i / 4) % 2 == 0 ? Direction::kUplink
                                                         : Direction::kDownlink});
      }
      for (int i = kStations - 1; i > 0; --i) {
        std::swap(slots[static_cast<size_t>(i)],
                  slots[static_cast<size_t>(rng.UniformInt(0, i))]);
      }
      tbf::sweep::ScenarioJob job;
      job.config.qdisc = QdiscKind::kTbr;
      job.config.seed = rng.engine()();
      job.config.warmup = kWarmup;
      job.config.duration = kDuration;
      job.config.stats.window = tbf::Sec(1);  // Windowed; top_k 0 keeps every flow.
      for (int i = 0; i < kStations; ++i) {
        tbf::scenario::StationSpec station;
        station.id = static_cast<NodeId>(i + 1);
        station.rate = slots[static_cast<size_t>(i)].first;
        job.stations.push_back(station);
        tbf::scenario::FlowSpec flow;
        flow.client = station.id;
        flow.direction = slots[static_cast<size_t>(i)].second;
        if (flow.direction == Direction::kDownlink) {
          flow.model = tbf::scenario::TrafficModel::kTaskSequence;
          flow.task_bytes = kChunkBytes;
          flow.task_count = 1 << 20;  // Never exhausted: the flow stays saturating.
        }
        job.flows.push_back(flow);
      }
      jobs_.push_back(std::move(job));
    }

    // The analytic throughput-fair (DCF) prediction over the same rate mix, every
    // station contending: the floor TBR's aggregate must clear.
    {
      Span span("model.ThroughputFairAllocation");
      tbf::model::AnalyticBaselineConfig baseline;
      std::vector<tbf::model::NodeModel> nodes;
      for (int i = 0; i < kStations; ++i) {
        tbf::model::NodeModel node;
        node.beta_bps = tbf::model::AnalyticBaseline(kRates[i % 4], kStations, baseline);
        nodes.push_back(node);
      }
      throughput_fair_bps_ = tbf::model::ThroughputFairAllocation(nodes).total_bps;
    }
    built_ = DeclareAndBuild(jobs_[0]);
  }

  int RoundSize() const override { return kRoundOps; }
  std::string OpName(int index) const override {
    return "cell_saturated#" + std::to_string(index);
  }
  double Run(int index, bool traced) override {
    last_ = RunScenario(jobs_[static_cast<size_t>(index)], std::move(built_), traced);
    return tbf::ToSeconds(kWarmup + kDuration);
  }

  uint64_t Finish(int index, bool first, bool traced) override {
    const tbf::scenario::Results& r = last_.results;
    const std::string name = OpName(index);
    Require(r.aggregate_bps > throughput_fair_bps_,
            name + ": TBR aggregate " + std::to_string(r.aggregate_bps) +
                " bps does not exceed the throughput-fair prediction " +
                std::to_string(throughput_fair_bps_) + " bps");
    Require(static_cast<int>(r.airtime_share.size()) == kStations,
            name + ": airtime shares for " + std::to_string(r.airtime_share.size()) +
                " stations");
    double share_sum = 0.0;
    for (const auto& [node, share] : r.airtime_share) {
      share_sum += share;
      Require(std::abs(share * kStations - 1.0) <= kAirtimeBand,
              name + ": station " + std::to_string(node) + " airtime share " +
                  std::to_string(share) + " outside 1/N +-" +
                  std::to_string(static_cast<int>(kAirtimeBand * 100)) + "%");
    }
    Require(std::abs(share_sum - 1.0) < 1e-9,
            name + ": airtime shares sum to " + std::to_string(share_sum));
    int64_t chunks = 0;
    for (const tbf::scenario::FlowResult& flow : r.flows) {
      chunks += static_cast<int64_t>(flow.task_durations.size());
    }
    Require(chunks > 0, name + ": no downlink chunk completed");

    if (first) {
      model_.AddOp(r.aggregate_bps, TaskDurations(r));
    }
    if (traced) {
      AddScenarioLayers(last_, &layers_);
      layers_.Add("_tbr.run_s", last_.run_s);
      layers_.Add("_tbr.exchanges", static_cast<double>(r.mac_exchanges));
      layers_.Add("stats.sketch_merge_us", TimeSketchMerges(r) * 1e6);
      // The FIFO twin of the same cell, for the scheduler's host cost per exchange.
      tbf::sweep::ScenarioJob twin = jobs_[static_cast<size_t>(index)];
      twin.config.qdisc = QdiscKind::kFifo;
      const ScenarioRun fifo = RunScenario(twin, nullptr, false);
      layers_.Add("_fifo.run_s", fifo.run_s);
      layers_.Add("_fifo.exchanges", static_cast<double>(fifo.results.mac_exchanges));
      layers_.CountOp();
    }
    return DigestResults(r);
  }

  const ModelPool& model() const override { return model_; }

  const LayerTotals& layers() const override { return layers_; }

 private:
  std::vector<tbf::sweep::ScenarioJob> jobs_;
  double throughput_fair_bps_ = 0.0;
  std::unique_ptr<tbf::scenario::Wlan> built_;
  ScenarioRun last_;

  ModelPool model_;
  LayerTotals layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeCellSaturated() { return std::make_unique<CellSaturated>(); }

}  // namespace perfbench
