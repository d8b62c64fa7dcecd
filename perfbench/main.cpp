// perfbench: the simulator's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--trace-out <file>]
//
// Set-up (input synthesis, scenario declaration and build) runs kSetupReps times and
// reports its median. One untimed warm-up op follows, then whole rounds of ops until
// --seconds of op time have passed and at least kMinOps ops ran. Every op's outputs
// are checked after its clock stops; a failed check or a thrown ScenarioError,
// SweepError or CampaignError counts as a failed op that names itself and never aborts
// the run. With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 each op runs untraced and then traced, spans go to a Chrome trace-event
// file, and the last line carries the per-layer metrics and the tracing overhead.
// Set-up repetitions and ops move to the next CPU each time, and an op's threads share
// its CPU (CpuRotation).
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "tracer.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupReps = 9;
// op_wall_tail_ms is p75, which has at least 10 ops beyond it from 40 ops on.
constexpr int64_t kMinOps = 40;
constexpr double kTailQuantile = 0.75;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_s_per_wall_s", "s/s"},
    {"cpu_s_per_sim_s", "s/s"},
    {"op_wall_p50_ms", "ms"},
    {"op_wall_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"model.agg_mbps", "Mbit/s"},
    {"model.task_p50_s", "s"},
    {"model.task_p95_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.event_slots", "count"},
    {"mac.exchanges", "count"},
    {"mac.collisions", "count"},
    {"mac.deadline_rescans", "count"},
    {"mac.ifs_updates", "count"},
    {"mac.host_ns_per_exchange", "ns"},
    {"core.tbr_host_ns_per_exchange", "ns"},
    {"ap.fifo_host_ns_per_exchange", "ns"},
    {"ap.drops", "count"},
    {"net.pool_slots", "count"},
    {"net.tcp_retransmits", "count"},
    {"net.tcp_timeouts", "count"},
    {"net.payload_mb", "MB"},
    {"scenario.build_ms", "ms"},
    {"scenario.run_ms", "ms"},
    {"scenario.teardown_ms", "ms"},
    {"trace.generate_ms", "ms"},
    {"trace.recover_ms", "ms"},
    {"trace.frames", "count"},
    {"trace.transfers", "count"},
    {"stats.latency_samples", "count"},
    {"stats.windows", "count"},
    {"stats.metrology_kb", "KB"},
    {"stats.sketch_merge_us", "us"},
    {"shard.threads", "count"},
    {"shard.windows", "count"},
    {"shard.cross_shard_packets", "count"},
    {"shard.host_us_per_window", "us"},
    {"shard.serial_run_ms", "ms"},
    {"shard.all_cpus_run_ms", "ms"},
    {"shard.speedup", "ratio"},
    {"campaign.jobs", "count"},
    {"campaign.dispatched", "count"},
    {"campaign.redispatched", "count"},
    {"campaign.local_runs", "count"},
    {"campaign.job_bytes", "B"},
    {"campaign.result_bytes", "B"},
    {"campaign.archive_bytes", "B"},
    {"campaign.encode_results_us", "us"},
    {"campaign.decode_results_us", "us"},
    {"campaign.archive_decode_ms", "ms"},
    {"campaign.serial_ms", "ms"},
    {"campaign.wire_overhead", "ratio"},
    {"self.bench_ms", "ms"},
    {"self.scenario_ms", "ms"},
    {"self.trace_ms", "ms"},
    {"self.stats_ms", "ms"},
    {"self.shard_ms", "ms"},
    {"self.campaign_ms", "ms"},
    {"tracing.overhead_pct", "%"},
    {"tracing.spans_per_op", "count"},
};

// Ratio metrics: host seconds over work units, divided once over all traced ops.
struct RatioSpec {
  const char* name;
  const char* seconds;
  const char* units;
  double scale;
};
constexpr RatioSpec kRatios[] = {
    {"mac.host_ns_per_exchange", "_mac.run_s", "_mac.exchanges", 1e9},
    {"core.tbr_host_ns_per_exchange", "_tbr.run_s", "_tbr.exchanges", 1e9},
    {"ap.fifo_host_ns_per_exchange", "_fifo.run_s", "_fifo.exchanges", 1e9},
    {"shard.host_us_per_window", "_shard.run_s", "_shard.windows", 1e6},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench/tmp";
  std::string trace_out;
};

const std::map<std::string, std::function<std::unique_ptr<Workload>()>>& Factories() {
  static const std::map<std::string, std::function<std::unique_ptr<Workload>()>> f = {
      {"cell_saturated", MakeCellSaturated},
      {"replay_race", MakeReplayRace},
      {"campus_sharded", MakeCampusSharded},
      {"campaign_grid", MakeCampaignGrid},
  };
  return f;
}

bool Parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else if (key == "--scratch") {
      opt->scratch = value;
    } else if (key == "--trace-out") {
      opt->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && Factories().contains(opt->workload) && opt->seconds > 0.0;
}

// Host-time steadiness: a bench invocation must not inherit thread-count or campus
// overrides from the caller's shell.
void ClearTbfEnvironment() {
  std::vector<std::string> names = {"TBF_SWEEP_THREADS", "TBF_SHARD_THREADS"};
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("TBF_CAMPUS_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

void MakeDirs(const std::string& path) {
  for (size_t pos = path.find('/', 1);; pos = path.find('/', pos + 1)) {
    ::mkdir(path.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) {
      return;
    }
  }
}

// The CPUs the process may use, read once before anything narrows them.
const cpu_set_t* StartCpus() {
  static const cpu_set_t* const cpus = [] {
    static cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof(set), &set) == 0 ? &set : nullptr;
  }();
  return cpus;
}

// Moves the calling thread to the next CPU the process may use, one per call; threads
// it then starts inherit that one CPU. A single-threaded run otherwise stays on
// whichever core the scheduler started it on, and on a host shared with other
// tenants' load, cores differ in speed by up to ~40% at the same moment; rotating
// makes a run sample every core evenly. (On a 4-vCPU shared VM the quartile spread of
// cell_saturated's op_wall_p50_ms over ten seeds fell from 28% to 11%.) Ops that start
// threads are pinned too: spread over the vCPUs, the campus's lock-step windows and
// the campaign's request/reply round trips wait on waking idle vCPUs, and their median
// op times moved 30-55% between runs of the same code on a shared host.
class CpuRotation {
 public:
  CpuRotation() {
    if (const cpu_set_t* start = StartCpus()) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, start)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  void Next() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KB.
}

double Median(std::vector<double> v) { return v.empty() ? 0.0 : ExactQuantile(v, 0.5); }

void PrintJson(bool correct, int64_t attempted, int64_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.all().size(); ++i) {
    const Metric& m = metrics.all()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

void OnAllCpus(const std::function<void()>& fn) {
  cpu_set_t current;
  CPU_ZERO(&current);
  const cpu_set_t* start = StartCpus();
  if (start == nullptr || sched_getaffinity(0, sizeof(current), &current) != 0) {
    fn();
    return;
  }
  sched_setaffinity(0, sizeof(*start), start);
  try {
    fn();
  } catch (...) {
    sched_setaffinity(0, sizeof(current), &current);
    throw;
  }
  sched_setaffinity(0, sizeof(current), &current);
}

namespace {

int Main(int argc, char** argv) {
  Options opt;
  if (!Parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cell_saturated|replay_race|campus_sharded|"
                 "campaign_grid> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
#if defined(__GLIBC__)
  // Scenario teardown frees a multi-megabyte working set; glibc's trim would hand it
  // back to the kernel and the next scenario would page-fault it in again, a variable
  // host-time tax unrelated to simulation cost (the setting bench/bench_common.h pins).
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
  ClearTbfEnvironment();
  MakeDirs(opt.scratch);
  const auto& make = Factories().at(opt.workload);

  // Set-up runs on the calling thread in every workload; its repetitions rotate over
  // the CPUs like the ops.
  CpuRotation rotation;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    rotation.Next();
    SetTracing(opt.trace && rep == kSetupReps - 1);
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Workload> fresh = make();
    fresh->Setup(opt.seed, opt.scratch);
    setup_seconds.push_back(SecondsSince(start));
    SetTracing(false);
    workload = std::move(fresh);
  }

  const int round = workload->RoundSize();
  std::vector<uint64_t> first_digest(static_cast<size_t>(round), 0);
  std::vector<bool> seen(static_cast<size_t>(round), false);
  int64_t attempted = 0;
  int64_t failed = 0;
  // Per untraced op: host wall seconds, simulated seconds per wall second, and CPU
  // seconds (all threads) per simulated second. Medians over ops keep a run's figures
  // robust to short bursts of load from elsewhere on the host.
  std::vector<double> walls;
  std::vector<double> sim_rates;
  std::vector<double> cpu_costs;
  std::vector<double> traced_walls;  // Traced ops (--trace 1).

  // Runs op `index` once; `timed` ops count as attempted.
  auto execute = [&](int index, bool timed, bool traced) {
    const int64_t op_id = timed ? ++attempted : 0;
    rotation.Next();
    SetCurrentOp(op_id);
    try {
      SetTracing(traced);
      const double cpu_start = CpuSeconds();
      const Clock::time_point start = Clock::now();
      double sim_seconds = 0.0;
      {
        Span span("bench.op");
        sim_seconds = workload->Run(index, traced);
      }
      const double wall = SecondsSince(start);
      const double cpu = CpuSeconds() - cpu_start;
      SetTracing(false);

      const bool first = !seen[static_cast<size_t>(index)];
      const uint64_t digest = workload->Finish(index, first, traced);
      if (first) {
        seen[static_cast<size_t>(index)] = true;
        first_digest[static_cast<size_t>(index)] = digest;
      } else {
        Require(digest == first_digest[static_cast<size_t>(index)],
                workload->OpName(index) + ": results differ from its first execution");
      }
      if (!timed) {
        return;
      }
      if (traced) {
        traced_walls.push_back(wall);
      } else {
        walls.push_back(wall);
        sim_rates.push_back(sim_seconds / wall);
        cpu_costs.push_back(cpu / sim_seconds);
      }
    } catch (const std::exception& e) {
      SetTracing(false);
      failed += timed ? 1 : 0;
      std::fprintf(stderr, "FAILED %s%s: %s\n", workload->OpName(index).c_str(),
                   timed ? "" : " (warm-up)", e.what());
    }
  };

  execute(0, /*timed=*/false, /*traced=*/false);
  const Clock::time_point loop_start = Clock::now();
  int rounds = 0;
  do {
    for (int i = 0; i < round; ++i) {
      execute(i, true, false);
      if (opt.trace) {
        execute(i, true, true);
      }
    }
    ++rounds;
  } while (SecondsSince(loop_start) < opt.seconds || (!opt.trace && attempted < kMinOps));

  uint64_t digest = kFnvOffset;
  for (const uint64_t d : first_digest) {
    digest = FnvValue(d, digest);
  }
  std::printf("perfbench %s seed=%llu: %lld ops in %d rounds, %lld failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<long long>(attempted), rounds, static_cast<long long>(failed));
  std::printf("digest %s seed=%llu %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(digest));

  Metrics out;
  bool correct = !walls.empty();
  if (!opt.trace) {
    Metrics model;
    workload->model().Emit(&model);
    for (const MetricSpec& spec : kEndToEnd) {
      double value = 0.0;
      const std::string name = spec.name;
      if (name == "setup_s") {
        value = Median(setup_seconds);
      } else if (name == "sim_s_per_wall_s") {
        value = Median(sim_rates);
      } else if (name == "cpu_s_per_sim_s") {
        value = Median(cpu_costs);
      } else if (name == "op_wall_p50_ms") {
        value = Median(walls) * 1e3;
      } else if (name == "op_wall_tail_ms") {
        value = walls.empty() ? 0.0 : ExactQuantile(walls, kTailQuantile) * 1e3;
      } else if (name == "peak_rss_mb") {
        value = PeakRssMb();
      } else if (const Metric* m = model.Find(name)) {
        value = m->value;
      }
      // Every end-to-end metric of a sound run is positive and finite.
      if (!std::isfinite(value) || value <= 0.0) {
        std::fprintf(stderr, "metric %s reads %g\n", spec.name, value);
        correct = false;
        value = std::isfinite(value) ? value : 0.0;
      }
      out.Set(name, value, spec.unit);
    }
  } else {
    const std::vector<SpanRecord> all = RecordedSpans();
    std::vector<SpanRecord> op_spans;
    for (const SpanRecord& s : all) {
      if (s.op > 0) {
        op_spans.push_back(s);
      }
    }
    const std::map<std::string, double> self = SelfSecondsByLayer(op_spans);
    const double traced_ops = static_cast<double>(std::max<size_t>(1, traced_walls.size()));
    const LayerTotals& layers = workload->layers();
    for (const MetricSpec& spec : kPerLayer) {
      const std::string name = spec.name;
      double value = layers.Value(name);
      for (const RatioSpec& ratio : kRatios) {
        if (name == ratio.name) {
          const double units = layers.Sum(ratio.units);
          value = units > 0.0 ? layers.Sum(ratio.seconds) * ratio.scale / units : 0.0;
        }
      }
      if (name.rfind("self.", 0) == 0) {
        const std::string layer = name.substr(5, name.size() - 5 - 3);  // Drop "_ms".
        const auto it = self.find(layer);
        value = it == self.end() ? 0.0 : it->second * 1e3 / traced_ops;
      } else if (name == "tracing.overhead_pct") {
        value = (Median(traced_walls) / Median(walls) - 1.0) * 100.0;
      } else if (name == "tracing.spans_per_op") {
        value = static_cast<double>(op_spans.size()) / traced_ops;
      }
      out.Set(name, std::isfinite(value) ? value : 0.0, spec.unit);
    }
    std::string path = opt.trace_out;
    if (path.empty()) {
      path = opt.scratch + "/trace-" + opt.workload + ".json";
    }
    if (WriteChromeTrace(path, all)) {
      std::printf("trace: %zu spans written to %s\n", all.size(), path.c_str());
    } else {
      std::fprintf(stderr, "could not write the trace file %s\n", path.c_str());
      correct = false;
    }
  }
  PrintJson(correct, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    // Set-up failures land here: the run cannot measure anything, so no result line.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
