// campaign_grid: campaign::MakeSmokeGrid manifests served by a Coordinator over a unix
// socket to two in-process RunWorker threads, with a write-ahead log in a fresh
// temporary directory and local fallback off, so every job crosses the wire. The only
// workload for the codec, the wire protocol and the coordinator, and the opposite use
// of the scenario layer from cell_saturated: thousands of tiny jobs, where build,
// teardown and encoding dominate. An op is one campaign.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tbf/campaign/codec.h"
#include "tbf/campaign/coordinator.h"
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/worker.h"
#include "tbf/sim/random.h"
#include "workload.h"

namespace perfbench {
namespace {

using tbf::campaign::CampaignJob;
using tbf::campaign::Manifest;

constexpr int kRoundOps = 4;
constexpr int kJobs = 400;
constexpr int kWorkers = 2;
// The grid's TCP flows become back-to-back 6 KB transfers, so campaigns also carry
// task latencies; everything else is the grid as MakeSmokeGrid generates it.
constexpr int64_t kTaskBytes = 6 * 1024;

// A fresh directory under the scratch directory, removed with everything in it when
// the workload ends. Paths stay relative to the working directory: a unix socket path
// must fit in 108 bytes wherever the checkout lives.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string pattern = parent + "/campaign-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp under " + parent + ": " + std::strerror(errno));
    }
    path_ = pattern;
  }
  ~TempDir() {
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          ::unlink((path_ + "/" + name).c_str());
        }
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Joins the worker threads on every path out of an op, so a throwing coordinator never
// leaves a thread running.
class WorkerThreads {
 public:
  WorkerThreads(const std::string& socket_path, SpanContext context) {
    for (int w = 0; w < kWorkers; ++w) {
      tbf::campaign::WorkerConfig config;
      config.socket_path = socket_path;
      config.name = "perfbench-w" + std::to_string(w + 1);
      config.heartbeat_interval_ms = 200;
      // Workers start before the coordinator listens; retry often, for up to ~2 s.
      config.reconnect_delay_ms = 1;
      config.max_reconnects = 2000;
      threads_.emplace_back([config, context, w] {
        AdoptContext(context, w + 1);
        Span span("campaign.RunWorker");
        tbf::campaign::RunWorker(config);
      });
    }
  }
  ~WorkerThreads() {
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  WorkerThreads(const WorkerThreads&) = delete;
  WorkerThreads& operator=(const WorkerThreads&) = delete;

 private:
  std::vector<std::thread> threads_;
};

Manifest MakeManifest(uint64_t seed) {
  tbf::campaign::SmokeGridSpec spec;
  spec.jobs = kJobs;
  spec.seed = seed;
  Manifest manifest;
  {
    Span span("campaign.MakeSmokeGrid");
    manifest = tbf::campaign::MakeSmokeGrid(spec);
  }
  for (CampaignJob& job : manifest.jobs) {
    for (tbf::scenario::FlowSpec& flow : job.flows) {
      if (flow.transport == tbf::scenario::Transport::kTcp) {
        flow.model = tbf::scenario::TrafficModel::kTaskSequence;
        flow.task_bytes = kTaskBytes;
        flow.task_count = 1 << 20;
      }
    }
  }
  Span span("campaign.ValidateManifest");
  if (std::string err = tbf::campaign::ValidateManifest(manifest); !err.empty()) {
    throw tbf::campaign::CampaignError("invalid manifest: " + err);
  }
  return manifest;
}

class CampaignGrid final : public Workload {
 public:
  void Setup(uint64_t seed, const std::string& scratch_dir) override {
    dir_ = std::make_unique<TempDir>(scratch_dir);
    tbf::sim::Rng rng(seed);
    manifests_.clear();
    for (int op = 0; op < kRoundOps; ++op) {
      manifests_.push_back(MakeManifest(rng.engine()() >> 1));
    }
    built_ = MakeCoordinator(0);
  }

  int RoundSize() const override { return kRoundOps; }
  std::string OpName(int index) const override {
    return "campaign_grid#" + std::to_string(index);
  }
  double Run(int index, bool /*traced*/) override {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<tbf::campaign::Coordinator> coordinator =
        built_ != nullptr ? std::move(built_) : MakeCoordinator(index);
    archive_.clear();
    {
      WorkerThreads workers(socket_path_, CurrentContext());
      bool finished = false;
      {
        Span span("campaign.Run");
        finished = coordinator->Run();
      }
      Require(finished, OpName(index) + ": coordinator stopped before every job was done");
      Span span("campaign.EncodeArchiveBytes");
      archive_ = coordinator->EncodeArchiveBytes();
    }
    stats_ = coordinator->stats();
    {
      Span span("campaign.Teardown");
      coordinator.reset();
      ::unlink(wal_path_.c_str());
    }
    last_wall_s_ = SecondsSince(start);
    double sim_seconds = 0.0;
    for (const CampaignJob& job : manifests_[static_cast<size_t>(index)].jobs) {
      sim_seconds += tbf::ToSeconds(job.config.warmup + job.config.duration);
    }
    return sim_seconds;
  }

  uint64_t Finish(int index, bool first, bool traced) override {
    const Manifest& manifest = manifests_[static_cast<size_t>(index)];
    const std::string name = OpName(index);
    Require(stats_.local_runs == 0 && stats_.redispatched == 0,
            name + ": " + std::to_string(stats_.local_runs) + " local runs, " +
                std::to_string(stats_.redispatched) + " re-dispatches");

    Clock::time_point start = Clock::now();
    std::vector<tbf::scenario::Results> decoded;
    bool decoded_ok = false;
    {
      Span span("campaign.DecodeArchive");
      decoded_ok = tbf::campaign::DecodeArchive(archive_, &decoded);
    }
    const double archive_decode_s = SecondsSince(start);
    Require(decoded_ok, name + ": archive does not decode");
    Require(decoded.size() == manifest.jobs.size(),
            name + ": " + std::to_string(decoded.size()) + " decoded results for " +
                std::to_string(manifest.jobs.size()) + " jobs");
    tbf::campaign::MergedSummary summary;
    Require(tbf::campaign::DecodeArchiveSummary(archive_, &summary),
            name + ": archive summary does not decode");
    int64_t tasks = 0;
    int64_t exchanges = 0;
    double aggregate = 0.0;
    for (const tbf::scenario::Results& r : decoded) {
      tasks += r.tasks_completed;
      exchanges += r.mac_exchanges;
      aggregate += r.aggregate_bps;
    }
    Require(summary.jobs == static_cast<int64_t>(decoded.size()) &&
                summary.tasks_completed == tasks && summary.mac_exchanges == exchanges &&
                std::abs(summary.aggregate_bps_sum - aggregate) <= 1e-9 * aggregate,
            name + ": merged summary totals differ from the decoded results' sums");

    if (first) {
      start = Clock::now();
      std::string serial;
      {
        Span span("campaign.RunSerialArchive");
        serial = tbf::campaign::RunSerialArchive(manifest);
      }
      serial_s_[index] = SecondsSince(start);
      Require(serial == archive_,
              name + ": distributed archive differs from RunSerialArchive");
      // Aggregate: mean over the campaign's stock-TBR jobs; tasks: every job's.
      double tbr_bps = 0.0;
      int tbr_jobs = 0;
      std::vector<double> durations;
      for (size_t j = 0; j < decoded.size(); ++j) {
        if (manifest.jobs[j].config.qdisc == tbf::scenario::QdiscKind::kTbr) {
          tbr_bps += decoded[j].aggregate_bps;
          ++tbr_jobs;
        }
        const std::vector<double> job_durations = TaskDurations(decoded[j]);
        durations.insert(durations.end(), job_durations.begin(), job_durations.end());
      }
      model_.AddOp(tbr_jobs > 0 ? tbr_bps / tbr_jobs : 0.0, durations);
    }
    if (traced) {
      AddLayers(index, decoded, archive_decode_s);
    }
    return Fnv1a(archive_);
  }

  const ModelPool& model() const override { return model_; }

  const LayerTotals& layers() const override { return layers_; }

 private:
  std::unique_ptr<tbf::campaign::Coordinator> MakeCoordinator(int index) {
    // Fresh socket and log names per campaign: a log left by an earlier campaign of the
    // same manifest would be resumed instead of re-run.
    ++campaigns_;
    socket_path_ = dir_->path() + "/c" + std::to_string(campaigns_) + ".sock";
    wal_path_ = dir_->path() + "/c" + std::to_string(campaigns_) + ".wal";
    tbf::campaign::CoordinatorConfig config;
    config.socket_path = socket_path_;
    config.wal_path = wal_path_;
    config.local_fallback_after_ms = -1;
    Span span("campaign.Coordinator");
    return std::make_unique<tbf::campaign::Coordinator>(manifests_[static_cast<size_t>(index)],
                                                        config);
  }

  void AddLayers(int index, const std::vector<tbf::scenario::Results>& decoded,
                 double archive_decode_s) {
    const Manifest& manifest = manifests_[static_cast<size_t>(index)];
    layers_.Add("campaign.jobs", static_cast<double>(manifest.jobs.size()));
    layers_.Add("campaign.dispatched", static_cast<double>(stats_.dispatched));
    layers_.Add("campaign.redispatched", static_cast<double>(stats_.redispatched));
    layers_.Add("campaign.local_runs", static_cast<double>(stats_.local_runs));
    layers_.Add("campaign.archive_bytes", static_cast<double>(archive_.size()));
    layers_.Add("campaign.archive_decode_ms", archive_decode_s * 1e3);
    layers_.Add("campaign.serial_ms", serial_s_[index] * 1e3);
    layers_.Add("campaign.wire_overhead", last_wall_s_ / serial_s_[index]);

    double job_bytes = 0.0;
    for (const CampaignJob& job : manifest.jobs) {
      job_bytes += static_cast<double>(tbf::campaign::EncodeJob(job).size());
    }
    layers_.Add("campaign.job_bytes", job_bytes);
    std::vector<std::string> blobs;
    Clock::time_point start = Clock::now();
    {
      Span span("campaign.EncodeResults");
      for (const tbf::scenario::Results& r : decoded) {
        blobs.push_back(tbf::campaign::EncodeResults(r));
      }
    }
    layers_.Add("campaign.encode_results_us", SecondsSince(start) * 1e6);
    double result_bytes = 0.0;
    for (const std::string& blob : blobs) {
      result_bytes += static_cast<double>(blob.size());
    }
    layers_.Add("campaign.result_bytes", result_bytes);
    start = Clock::now();
    {
      Span span("campaign.DecodeResults");
      tbf::scenario::Results scratch;
      for (const std::string& blob : blobs) {
        Require(tbf::campaign::DecodeResults(blob, &scratch), "result blob does not decode");
      }
    }
    layers_.Add("campaign.decode_results_us", SecondsSince(start) * 1e6);

    // The scenario layer's share: the same jobs through Wlan's phases in-process, with
    // the host cost per exchange split by the AP's scheduler.
    for (size_t j = 0; j < manifest.jobs.size(); ++j) {
      const ScenarioRun run =
          RunScenario(tbf::campaign::ToScenarioJob(manifest.jobs[j]), nullptr, true);
      AddScenarioLayers(run, &layers_);
      const tbf::scenario::QdiscKind kind = manifest.jobs[j].config.qdisc;
      const char* prefix = kind == tbf::scenario::QdiscKind::kTbr    ? "_tbr"
                           : kind == tbf::scenario::QdiscKind::kFifo ? "_fifo"
                                                                     : nullptr;
      if (prefix != nullptr) {
        layers_.Add(std::string(prefix) + ".run_s", run.run_s);
        layers_.Add(std::string(prefix) + ".exchanges",
                    static_cast<double>(run.results.mac_exchanges));
      }
    }
    layers_.CountOp();
  }

  std::unique_ptr<TempDir> dir_;
  std::vector<Manifest> manifests_;
  std::unique_ptr<tbf::campaign::Coordinator> built_;
  int campaigns_ = 0;
  std::string socket_path_;
  std::string wal_path_;
  std::string archive_;
  tbf::campaign::CoordinatorStats stats_;
  double serial_s_[kRoundOps] = {};
  double last_wall_s_ = 0.0;

  ModelPool model_;
  LayerTotals layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampaignGrid() { return std::make_unique<CampaignGrid>(); }

}  // namespace perfbench
