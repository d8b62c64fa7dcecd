#include <algorithm>
#include <cmath>
#include <string>

#include "tbf/campaign/codec.h"
#include "workload.h"

namespace perfbench {

using tbf::scenario::CampusResults;
using tbf::scenario::LatencySummary;
using tbf::scenario::Results;

uint64_t DigestResults(const Results& results, uint64_t h) {
  return Fnv1a(tbf::campaign::EncodeResults(results), h);
}

namespace {

uint64_t DigestSummary(const LatencySummary& s, uint64_t h) {
  h = FnvValue(s.count, h);
  h = FnvValue(s.p50, h);
  h = FnvValue(s.p95, h);
  return FnvValue(s.p99, h);
}

uint64_t DigestSketch(const tbf::stats::QuantileSketch& sketch, uint64_t h) {
  std::string bytes;
  sketch.SerializeTo(&bytes);
  return Fnv1a(bytes, h);
}

uint64_t DigestSeries(const tbf::stats::MeterSeries& series, uint64_t h) {
  h = FnvValue(series.window, h);
  for (const tbf::stats::WindowStat& w : series.windows) {
    h = FnvValue(w.start, h);
    h = FnvValue(w.count, h);
    h = FnvValue(w.p50, h);
    h = FnvValue(w.p95, h);
    h = FnvValue(w.p99, h);
  }
  return h;
}

}  // namespace

uint64_t DigestCampus(const CampusResults& results) {
  uint64_t h = kFnvOffset;
  for (const Results& cell : results.cells) {
    h = DigestResults(cell, h);
  }
  h = FnvValue(results.aggregate_bps, h);
  h = FnvValue(results.tasks_completed, h);
  h = FnvValue(results.mac_exchanges, h);
  h = FnvValue(results.mac_collisions, h);
  h = DigestSummary(results.rtt, h);
  h = DigestSummary(results.ap_queue_delay, h);
  h = DigestSummary(results.task_latency, h);
  h = DigestSketch(results.rtt_sketch, h);
  h = DigestSketch(results.ap_queue_delay_sketch, h);
  h = DigestSketch(results.task_latency_sketch, h);
  h = DigestSeries(results.rtt_series, h);
  h = DigestSeries(results.ap_queue_delay_series, h);
  h = DigestSeries(results.task_latency_series, h);
  h = FnvValue(results.goodput_series.window, h);
  for (const tbf::stats::ByteWindow& w : results.goodput_series.windows) {
    h = FnvValue(w.start, h);
    h = FnvValue(w.count, h);
    h = FnvValue(w.bytes, h);
  }
  h = FnvValue(results.lookahead, h);
  h = FnvValue(results.windows, h);
  h = FnvValue(results.cross_shard_packets, h);
  return FnvValue(results.backbone_drops, h);
}

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  const int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n)));
  return values[static_cast<size_t>(rank - 1)];
}

void RequireSketchWithinBound(const LatencySummary& summary, double relative_error,
                              std::vector<double> exact, const std::string& what) {
  Require(summary.count == static_cast<int64_t>(exact.size()),
          what + ": sketch counted " + std::to_string(summary.count) + " samples, " +
              std::to_string(exact.size()) + " task durations");
  if (exact.empty()) {
    return;
  }
  const std::pair<double, tbf::TimeNs> checks[] = {{0.50, summary.p50},
                                                   {0.95, summary.p95}};
  for (const auto& [q, sketched] : checks) {
    const double truth = ExactQuantile(exact, q);
    // +1 ns: the summary rounds the sketch's estimate to whole nanoseconds.
    Require(std::abs(static_cast<double>(sketched) - truth) <= relative_error * truth + 1.0,
            what + ": sketch p" + std::to_string(static_cast<int>(q * 100)) + " " +
                std::to_string(sketched) + " ns vs exact " + std::to_string(truth) + " ns");
  }
}

std::unique_ptr<tbf::scenario::Wlan> DeclareAndBuild(const tbf::sweep::ScenarioJob& job) {
  auto wlan = std::make_unique<tbf::scenario::Wlan>(job.config);
  {
    Span span("scenario.Declare");
    for (const tbf::scenario::StationSpec& station : job.stations) {
      wlan->AddStation(station);
    }
    for (const tbf::scenario::FlowSpec& flow : job.flows) {
      wlan->AddFlow(flow);
    }
  }
  Span span("scenario.BuildNow");
  wlan->BuildNow();
  return wlan;
}

ScenarioRun RunScenario(const tbf::sweep::ScenarioJob& job,
                        std::unique_ptr<tbf::scenario::Wlan> built, bool traced) {
  ScenarioRun run;
  Clock::time_point start = Clock::now();
  if (built == nullptr) {
    built = DeclareAndBuild(job);
  }
  run.build_s = SecondsSince(start);
  start = Clock::now();
  {
    Span span("scenario.Run");
    run.results = built->Run();
  }
  run.run_s = SecondsSince(start);
  if (traced) {
    run.event_slots = static_cast<int64_t>(built->simulator().event_pool_slots());
    run.pool_slots = static_cast<int64_t>(built->packet_pool().slots());
    run.deadline_rescans = built->medium()->deadline_rescans();
    run.ifs_updates = built->medium()->ifs_updates();
    run.metrology_bytes = static_cast<int64_t>(built->stats_engine().MemoryFootprintBytes());
  }
  start = Clock::now();
  {
    Span span("scenario.Teardown");
    built.reset();
  }
  run.teardown_s = SecondsSince(start);
  return run;
}

double TimeSketchMerges(const Results& results) {
  tbf::stats::QuantileSketch task;
  tbf::stats::QuantileSketch rtt;
  tbf::stats::QuantileSketch queue;
  const Clock::time_point start = Clock::now();
  {
    Span span("stats.Merge");
    task.Merge(results.task_latency_sketch);
    rtt.Merge(results.rtt_sketch);
    queue.Merge(results.ap_queue_delay_sketch);
  }
  return SecondsSince(start);
}

void AddScenarioLayers(const ScenarioRun& run, LayerTotals* layers) {
  AddResultsLayers(run.results, layers);
  layers->Add("scenario.build_ms", run.build_s * 1e3);
  layers->Add("scenario.run_ms", run.run_s * 1e3);
  layers->Add("scenario.teardown_ms", run.teardown_s * 1e3);
  layers->Add("mac.deadline_rescans", static_cast<double>(run.deadline_rescans));
  layers->Add("mac.ifs_updates", static_cast<double>(run.ifs_updates));
  layers->Add("_mac.run_s", run.run_s);
  layers->Add("_mac.exchanges", static_cast<double>(run.results.mac_exchanges));
  layers->Max("sim.event_slots", static_cast<double>(run.event_slots));
  layers->Max("net.pool_slots", static_cast<double>(run.pool_slots));
  layers->Max("stats.metrology_kb", run.metrology_bytes / 1024.0);
}

void ModelPool::AddOp(double aggregate_bps, const std::vector<double>& task_durations_ns) {
  aggregate_bps_.push_back(aggregate_bps);
  p50_ns_.push_back(task_durations_ns.empty() ? 0.0 : ExactQuantile(task_durations_ns, 0.50));
  p95_ns_.push_back(task_durations_ns.empty() ? 0.0 : ExactQuantile(task_durations_ns, 0.95));
}

namespace {

// The sketch's q-quantile, interpolated by rank inside its bucket. The sketch answers
// with its bucket's representative, so a plain Quantile() moves in 2% steps and a
// tight latency distribution reads the same value for every seed; spreading the
// bucket's ranks evenly over the bucket's value range moves with the samples instead.
double InterpolatedQuantile(const tbf::stats::QuantileSketch& sketch, double q) {
  const int64_t n = sketch.count();
  if (n == 0) {
    return 0.0;
  }
  auto at_rank = [&](int64_t rank) { return sketch.Quantile((rank - 0.5) / n); };
  const int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n)));
  const double value = at_rank(rank);
  int64_t first = rank;
  int64_t last = rank;
  while (first > 1 && at_rank(first - 1) == value) {
    --first;
  }
  while (last < n && at_rank(last + 1) == value) {
    ++last;
  }
  // Bucket (gamma^(i-1), gamma^i] answers with 2 gamma^i / (gamma + 1).
  const double a = sketch.relative_error();
  const double gamma = (1.0 + a) / (1.0 - a);
  const double lower = value * (gamma + 1.0) / (2.0 * gamma);
  const double upper = value * (gamma + 1.0) / 2.0;
  return lower + (upper - lower) * (rank - first + 0.5) / static_cast<double>(last - first + 1);
}

}  // namespace

void ModelPool::AddOp(double aggregate_bps, const tbf::stats::QuantileSketch& task_latency) {
  aggregate_bps_.push_back(aggregate_bps);
  p50_ns_.push_back(InterpolatedQuantile(task_latency, 0.50));
  p95_ns_.push_back(InterpolatedQuantile(task_latency, 0.95));
}

void ModelPool::Emit(Metrics* out) const {
  auto median = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : ExactQuantile(v, 0.5);
  };
  out->Set("model.agg_mbps", median(aggregate_bps_) / 1e6, "Mbit/s");
  out->Set("model.task_p50_s", median(p50_ns_) / 1e9, "s");
  out->Set("model.task_p95_s", median(p95_ns_) / 1e9, "s");
}

std::vector<double> TaskDurations(const Results& results) {
  std::vector<double> out;
  for (const tbf::scenario::FlowResult& flow : results.flows) {
    for (const tbf::TimeNs d : flow.task_durations) {
      out.push_back(static_cast<double>(d));
    }
  }
  return out;
}

void AddResultsLayers(const Results& results, LayerTotals* layers) {
  int64_t retransmits = 0;
  int64_t timeouts = 0;
  int64_t payload = 0;
  for (const tbf::scenario::FlowResult& flow : results.flows) {
    retransmits += flow.retransmits;
    timeouts += flow.timeouts;
    payload += flow.bytes_delivered;
  }
  layers->Add("mac.exchanges", static_cast<double>(results.mac_exchanges));
  layers->Add("mac.collisions", static_cast<double>(results.mac_collisions));
  layers->Add("ap.drops", static_cast<double>(results.ap_drops));
  layers->Add("net.tcp_retransmits", static_cast<double>(retransmits));
  layers->Add("net.tcp_timeouts", static_cast<double>(timeouts));
  layers->Add("net.payload_mb", payload / 1e6);
  layers->Add("stats.latency_samples",
              static_cast<double>(results.task_latency.count + results.rtt.count +
                                  results.ap_queue_delay.count));
  layers->Add("stats.windows", static_cast<double>(results.goodput_series.windows.size()));
}

}  // namespace perfbench
