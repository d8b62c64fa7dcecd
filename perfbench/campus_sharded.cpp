// campus_sharded: a shard::CampusSim of 64 BSSs x 16 mixed-rate stations, half bulk TCP
// uplinks and half task-sequence downloads, every cell on stock TBR, metrology
// streaming (500 ms windows, top-4 plus 1-in-32 sampled retention). The campus uses
// the program's default shard-thread count, and its threads share the op's one CPU
// (main.cpp); traced ops also time it spread over every CPU. The only workload for the
// shard layer (windows, mailboxes, barriers, seal/merge trees) and for sampled
// retention. An op is one campus run.
#include <cmath>
#include <string>
#include <vector>

#include "tbf/shard/campus_sim.h"
#include "tbf/sim/random.h"
#include "workload.h"

namespace perfbench {
namespace {

using tbf::NodeId;
using tbf::phy::WifiRate;
using tbf::scenario::Direction;

constexpr int kRoundOps = 2;
constexpr int kCells = 64;
constexpr int kStationsPerCell = 16;
constexpr tbf::TimeNs kWarmup = tbf::Ms(500);
constexpr tbf::TimeNs kDuration = tbf::Sec(1);

constexpr WifiRate kRates[] = {WifiRate::k1Mbps, WifiRate::k2Mbps, WifiRate::k5_5Mbps,
                               WifiRate::k11Mbps};

struct CampusInput {
  tbf::scenario::CampusConfig config;
  std::vector<tbf::scenario::BssSpec> cells;
};

std::unique_ptr<tbf::shard::CampusSim> Declare(const CampusInput& input, int threads) {
  std::unique_ptr<tbf::shard::CampusSim> campus;
  {
    Span span("shard.CampusSim");
    campus = std::make_unique<tbf::shard::CampusSim>(input.config, threads);
  }
  Span span("shard.AddBss");
  for (const tbf::scenario::BssSpec& bss : input.cells) {
    campus->AddBss(bss);
  }
  return campus;
}

class CampusSharded final : public Workload {
 public:
  void Setup(uint64_t seed, const std::string& /*scratch_dir*/) override {
    tbf::sim::Rng rng(seed);
    inputs_.clear();
    for (int op = 0; op < kRoundOps; ++op) {
      CampusInput input;
      input.config.cell.qdisc = tbf::scenario::QdiscKind::kTbr;
      input.config.cell.seed = rng.engine()();
      input.config.cell.warmup = kWarmup;
      input.config.cell.duration = kDuration;
      input.config.cell.stats.window = tbf::Ms(500);
      input.config.cell.stats.top_k = 4;
      input.config.cell.stats.sample_every = 32;
      for (int c = 0; c < kCells; ++c) {
        // Four stations per rate, two up and two down, dealt in a seeded order.
        std::vector<std::pair<WifiRate, Direction>> slots;
        for (int i = 0; i < kStationsPerCell; ++i) {
          slots.push_back({kRates[i % 4], (i / 4) % 2 == 0 ? Direction::kUplink
                                                           : Direction::kDownlink});
        }
        for (int i = kStationsPerCell - 1; i > 0; --i) {
          std::swap(slots[static_cast<size_t>(i)],
                    slots[static_cast<size_t>(rng.UniformInt(0, i))]);
        }
        tbf::scenario::BssSpec bss;
        for (int i = 0; i < kStationsPerCell; ++i) {
          tbf::scenario::StationSpec station;
          station.id = static_cast<NodeId>(i + 1);
          station.rate = slots[static_cast<size_t>(i)].first;
          bss.stations.push_back(station);
          tbf::scenario::FlowSpec flow;
          flow.client = station.id;
          flow.direction = slots[static_cast<size_t>(i)].second;
          if (flow.direction == Direction::kDownlink) {
            flow.model = tbf::scenario::TrafficModel::kTaskSequence;
            flow.task_bytes = 12 * 1024;
            flow.task_count = 64;
            flow.task_gap = tbf::Ms(50);
          }
          bss.flows.push_back(flow);
        }
        input.cells.push_back(std::move(bss));
      }
      inputs_.push_back(std::move(input));
    }
    built_ = Declare(inputs_[0], 0);
  }

  int RoundSize() const override { return kRoundOps; }
  std::string OpName(int index) const override {
    return "campus_sharded#" + std::to_string(index);
  }

  double Run(int index, bool traced) override {
    std::unique_ptr<tbf::shard::CampusSim> campus =
        built_ != nullptr ? std::move(built_) : Declare(inputs_[static_cast<size_t>(index)], 0);
    const Clock::time_point start = Clock::now();
    {
      Span span("shard.Run");
      results_ = campus->Run();
    }
    run_s_ = SecondsSince(start);
    if (traced) {
      threads_ = campus->thread_count();
      metrology_bytes_ = static_cast<double>(campus->MetrologyBytes());
    }
    {
      Span span("shard.Teardown");
      campus.reset();
    }
    return tbf::ToSeconds(kWarmup + kDuration);
  }

  uint64_t Finish(int index, bool first, bool traced) override {
    const tbf::scenario::CampusResults& r = results_;
    const std::string name = OpName(index);
    const uint64_t digest = DigestCampus(r);

    const tbf::TimeNs simulated = kWarmup + kDuration;
    const int64_t expected_windows = (simulated + r.lookahead - 1) / r.lookahead;
    Require(r.lookahead > 0 && r.windows == expected_windows,
            name + ": " + std::to_string(r.windows) + " windows, simulated time / " +
                "lookahead gives " + std::to_string(expected_windows));
    Require(static_cast<int>(r.cells.size()) == kCells,
            name + ": " + std::to_string(r.cells.size()) + " cell readouts");
    double cell_sum = 0.0;
    for (size_t c = 0; c < r.cells.size(); ++c) {
      const tbf::scenario::Results& cell = r.cells[c];
      cell_sum += cell.aggregate_bps;
      Require(cell.aggregate_bps > 0.0 && cell.tasks_completed > 0,
              name + ": cell " + std::to_string(c) + " carried " +
                  std::to_string(cell.aggregate_bps) + " bps and completed " +
                  std::to_string(cell.tasks_completed) + " tasks");
    }
    Require(std::abs(r.aggregate_bps - cell_sum) <= 1e-9 * cell_sum,
            name + ": campus aggregate " + std::to_string(r.aggregate_bps) +
                " bps, cells sum to " + std::to_string(cell_sum));

    if (first) {
      // The same campus on one shard thread must reproduce every bit.
      std::unique_ptr<tbf::shard::CampusSim> serial =
          Declare(inputs_[static_cast<size_t>(index)], 1);
      const Clock::time_point start = Clock::now();
      tbf::scenario::CampusResults serial_results;
      {
        Span span("shard.RunSerial");
        serial_results = serial->Run();
      }
      serial_run_s_[index] = SecondsSince(start);
      Require(serial_results == r && DigestCampus(serial_results) == digest,
              name + ": results differ from the same campus on 1 shard thread");
      model_.AddOp(r.aggregate_bps, r.task_latency_sketch);
    }
    if (traced) {
      // The same campus with its threads free to spread over the cores.
      double all_cpus_run_s = 0.0;
      tbf::scenario::CampusResults spread_results;
      OnAllCpus([&] {
        std::unique_ptr<tbf::shard::CampusSim> spread =
            Declare(inputs_[static_cast<size_t>(index)], 0);
        const Clock::time_point start = Clock::now();
        Span span("shard.RunAllCpus");
        spread_results = spread->Run();
        all_cpus_run_s = SecondsSince(start);
      });
      Require(spread_results == r,
              name + ": results differ from the same campus spread over every CPU");
      // Cell-level readouts summed over the campus's cells.
      for (const tbf::scenario::Results& cell : r.cells) {
        AddResultsLayers(cell, &layers_);
      }
      layers_.Max("stats.metrology_kb", metrology_bytes_ / 1024.0);
      tbf::stats::QuantileSketch pooled;
      const Clock::time_point start = Clock::now();
      {
        Span span("stats.Merge");
        for (const tbf::scenario::Results& cell : r.cells) {
          pooled.Merge(cell.task_latency_sketch);
        }
      }
      layers_.Add("stats.sketch_merge_us", SecondsSince(start) * 1e6);
      layers_.Max("shard.threads", threads_);
      layers_.Add("shard.windows", static_cast<double>(r.windows));
      layers_.Add("shard.cross_shard_packets", static_cast<double>(r.cross_shard_packets));
      layers_.Add("shard.serial_run_ms", serial_run_s_[index] * 1e3);
      layers_.Add("shard.all_cpus_run_ms", all_cpus_run_s * 1e3);
      layers_.Add("shard.speedup", serial_run_s_[index] / all_cpus_run_s);
      layers_.Add("_shard.run_s", run_s_);
      layers_.Add("_shard.windows", static_cast<double>(r.windows));
      layers_.Add("_mac.run_s", run_s_);
      layers_.Add("_mac.exchanges", static_cast<double>(r.mac_exchanges));
      layers_.Add("_tbr.run_s", run_s_);
      layers_.Add("_tbr.exchanges", static_cast<double>(r.mac_exchanges));
      layers_.CountOp();
    }
    return digest;
  }

  const ModelPool& model() const override { return model_; }

  const LayerTotals& layers() const override { return layers_; }

 private:
  std::vector<CampusInput> inputs_;
  std::unique_ptr<tbf::shard::CampusSim> built_;
  tbf::scenario::CampusResults results_;
  double run_s_ = 0.0;
  int threads_ = 0;
  double metrology_bytes_ = 0.0;
  double serial_run_s_[kRoundOps] = {};

  ModelPool model_;
  LayerTotals layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampusSharded() { return std::make_unique<CampusSharded>(); }

}  // namespace perfbench
