// The benchmark's workload interface and the helpers every workload shares.
//
// A workload builds its inputs from the seed (Setup), then runs ops - units of timed
// work of one shape - in whole rounds: a round is ops 0..RoundSize()-1, each op a fixed
// input derived from the seed, so every round repeats the same work and its results
// must repeat bit for bit. The driver (main.cpp) times Run() alone; Finish() runs
// after the clock stops and checks the op's outputs against computations made apart
// from the program's own readout.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tbf/scenario/campus.h"
#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sweep/sweep_runner.h"
#include "tracer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A failed output check. Counted as a failed op; never aborts the run.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void Require(bool condition, const std::string& what) {
  if (!condition) {
    throw CheckFailure(what);
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Per-layer readings summed over the traced ops. Value() is the per-op mean, or the
// maximum for a high-water reading (slots, bytes held). Names starting with '_' are
// internal sums that a ratio metric divides (see LayerValue in main.cpp).
class LayerTotals {
 public:
  void Add(const std::string& name, double value) { Entry(name, false).value += value; }
  void Max(const std::string& name, double value) {
    double& v = Entry(name, true).value;
    v = std::max(v, value);
  }
  void CountOp() { ++ops_; }

  double Sum(const std::string& name) const {
    for (const Item& item : items_) {
      if (item.name == name) {
        return item.value;
      }
    }
    return 0.0;
  }
  double Value(const std::string& name) const {
    for (const Item& item : items_) {
      if (item.name == name) {
        return item.high_water || ops_ == 0 ? item.value : item.value / ops_;
      }
    }
    return 0.0;
  }

 private:
  struct Item {
    std::string name;
    double value = 0.0;
    bool high_water = false;
  };
  Item& Entry(const std::string& name, bool high_water) {
    for (Item& item : items_) {
      if (item.name == name) {
        return item;
      }
    }
    items_.push_back({name, 0.0, high_water});
    return items_.back();
  }

  std::vector<Item> items_;
  int ops_ = 0;
};

// 64-bit FNV-1a: the simulated-statistics digest.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}
template <typename T>
uint64_t FnvValue(const T& value, uint64_t h) {
  return Fnv1a(std::string_view(reinterpret_cast<const char*>(&value), sizeof(value)), h);
}

// Digest of a scenario readout: its campaign-codec encoding, which carries every field
// bit for bit (doubles as IEEE-754 patterns, sketches, series).
uint64_t DigestResults(const tbf::scenario::Results& results, uint64_t h = kFnvOffset);
uint64_t DigestCampus(const tbf::scenario::CampusResults& results);

// Exact q-quantile of `values` under the sketch's rank rule: rank max(1, ceil(q*n)).
double ExactQuantile(std::vector<double> values, double q);

// Checks a readout's sketch p50/p95 against an exact sort of the samples it metered.
void RequireSketchWithinBound(const tbf::scenario::LatencySummary& summary,
                              double relative_error, std::vector<double> exact,
                              const std::string& what);

// Layer readings shared by every op that runs a scenario: transport, MAC and AP
// counters from a Results.
void AddResultsLayers(const tbf::scenario::Results& results, LayerTotals* layers);

// One scenario driven through scenario::Wlan's public phases, each wrapped in a span
// and timed: declaration + BuildNow, Run, teardown.
struct ScenarioRun {
  tbf::scenario::Results results;
  double build_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  // Accessor readings, taken only when traced (between Run and teardown).
  int64_t event_slots = 0;
  int64_t pool_slots = 0;
  int64_t deadline_rescans = 0;
  int64_t ifs_updates = 0;
  int64_t metrology_bytes = 0;
};

// Declares `job` on a fresh Wlan and builds it (the set-up half of a scenario).
std::unique_ptr<tbf::scenario::Wlan> DeclareAndBuild(const tbf::sweep::ScenarioJob& job);

// Runs `job` end to end; `built` is a Wlan DeclareAndBuild already made for it, or null.
ScenarioRun RunScenario(const tbf::sweep::ScenarioJob& job,
                        std::unique_ptr<tbf::scenario::Wlan> built, bool traced);

// Host seconds to pool a readout's three latency sketches into fresh ones - the merge
// a cross-seed or cross-shard readout performs.
double TimeSketchMerges(const tbf::scenario::Results& results);

// Adds a traced scenario's phase times, accessor readings and readout counters.
void AddScenarioLayers(const ScenarioRun& run, LayerTotals* layers);

// The model.* end-to-end metrics. Each op contributes its aggregate goodput and its
// task-latency p50/p95, pooled over the op's transfers; the metrics are medians over the
// first execution of each op of the round. A replay's backlog makes one capture's
// sojourns move together, so a median over ops is far steadier than one pool of all.
class ModelPool {
 public:
  void AddOp(double aggregate_bps, const std::vector<double>& task_durations_ns);
  void AddOp(double aggregate_bps, const tbf::stats::QuantileSketch& task_latency);
  void Emit(Metrics* out) const;

 private:
  std::vector<double> aggregate_bps_;
  std::vector<double> p50_ns_;
  std::vector<double> p95_ns_;
};

// Every task duration a readout retained, in nanoseconds.
std::vector<double> TaskDurations(const tbf::scenario::Results& results);

class Workload {
 public:
  virtual ~Workload() = default;

  // Synthesizes the inputs of one round from `seed` and builds what the first op needs.
  // Timed as set-up (repeated; the median is reported).
  virtual void Setup(uint64_t seed, const std::string& scratch_dir) = 0;
  virtual int RoundSize() const = 0;
  virtual std::string OpName(int index) const = 0;

  // Runs op `index`; the only timed call. Returns the simulated seconds it covered.
  // With `traced`, also reads the layer counters (all cheap accessor loads). main.cpp
  // pins the calling thread to one CPU first, so the threads an op starts share it.
  virtual double Run(int index, bool traced) = 0;

  // After the clock stops: checks op `index`'s outputs (throws CheckFailure) and returns
  // the digest of its simulated results. `first` marks the op's first execution, which
  // also runs the checks that need a second computation (twins, serial references) and
  // feeds the model metrics.
  virtual uint64_t Finish(int index, bool first, bool traced) = 0;

  // End-to-end model.* metrics, from the first execution of each op of the round.
  virtual const ModelPool& model() const = 0;
  // Per-layer readings of the traced ops, by metric name; main.cpp owns the units and
  // reports 0 for a layer the workload does not exercise.
  virtual const LayerTotals& layers() const = 0;
};

// Runs `fn` with every CPU the process started with allowed, then pins the calling
// thread back to its CPU: for a reading that wants the threads it starts spread over
// the cores (main.cpp).
void OnAllCpus(const std::function<void()>& fn);

std::unique_ptr<Workload> MakeCellSaturated();
std::unique_ptr<Workload> MakeReplayRace();
std::unique_ptr<Workload> MakeCampusSharded();
std::unique_ptr<Workload> MakeCampaignGrid();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
