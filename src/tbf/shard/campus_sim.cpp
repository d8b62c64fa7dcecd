#include "tbf/shard/campus_sim.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "tbf/scenario/cell.h"
#include "tbf/shard/mailbox.h"
#include "tbf/shard/shard_link.h"
#include "tbf/sweep/sweep_runner.h"
#include "tbf/util/logging.h"

namespace tbf::shard {

// One BSS shard: its own Simulator and PacketPool, the BSS itself (the shared
// scenario::Cell - the same builder scenario::Wlan uses, seeded seed + 1 + index and
// with its AP uplink feeding `uplink`), and the cell end of the backbone. The pool is
// declared right after the Simulator so it outlives every component that can hold
// packets.
struct CampusSim::CellShard {
  sim::Simulator sim;
  net::PacketPool pool;
  Mailbox to_core;                    // Written only by `uplink` during this cell's window.
  std::unique_ptr<ShardLink> uplink;  // Cell -> core backbone direction.
  // The cell's stats engine is written only by the cell's thread during windows and
  // sealed into the campus engine by the coordinator at barriers.
  std::unique_ptr<scenario::Cell> cell;
};

// The wired core shard: runs the server end of every flow (the flows themselves are
// owned by their cells). There is no medium here - just the transports, reached
// through the core demux, and one downlink ShardLink per cell.
struct CampusSim::CoreShard {
  sim::Simulator sim;
  net::PacketPool pool;
  sim::Rng rng;
  net::Demux demux;
  std::vector<Mailbox> to_cell;  // [i] written only by downlinks[i] during core windows.
  std::vector<std::unique_ptr<ShardLink>> downlinks;

  // Core-side metrology: task/RTT meters of core-side engines plus delivered bytes of
  // flows whose receiver lives here. Same ownership rule as the cell engines.
  stats::StatsEngine stats;
};

// Persistent window pool: `threads` workers claim shard indices from a shared counter
// and advance them to the window end. Claims and completion counts are mutex-guarded
// (plain mutex happens-before on both edges of every window, which both the memory
// model and TSan reason about directly); the shard advance itself runs unlocked -
// shards share no mutable state, so no further synchronization exists or is needed.
class CampusSim::Pool {
 public:
  Pool(CampusSim* owner, int threads, size_t shards) : owner_(owner), total_(shards) {
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  // Advances every shard to `until`; returns when all have arrived at the barrier.
  void RunWindow(TimeNs until) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      window_ = until;
      next_ = 0;
      done_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_ == total_; });
  }

 private:
  void WorkerLoop() {
    int64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      const TimeNs until = window_;
      while (next_ < total_) {
        const size_t shard = next_++;
        lock.unlock();
        owner_->AdvanceShard(shard, until);
        lock.lock();
        if (++done_ == total_) {
          done_cv_.notify_all();
        }
      }
    }
  }

  CampusSim* owner_;
  const size_t total_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  TimeNs window_ = 0;
  size_t next_ = 0;
  size_t done_ = 0;
  int64_t generation_ = 0;
  bool stop_ = false;
};

CampusSim::CampusSim(scenario::CampusConfig config, int threads)
    : config_(config),
      threads_(threads > 0 ? std::min(threads, 64) : DefaultShardThreads()) {}

CampusSim::~CampusSim() = default;

int CampusSim::DefaultShardThreads() {
  if (const char* env = std::getenv("TBF_SHARD_THREADS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) {
      return std::min(n, 64);
    }
  }
  if (sweep::SweepRunner::InSweepWorker()) {
    return 1;  // The sweep already owns the machine's parallelism budget.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 64u));
}

scenario::BssSpec& CampusSim::AddBss(scenario::BssSpec bss) {
  TBF_CHECK(!built_) << "AddBss after Run";
  bss_.push_back(std::move(bss));
  return bss_.back();
}

int CampusSim::shard_count() const {
  return static_cast<int>((built_ ? cells_.size() : bss_.size()) + 1);
}

void CampusSim::Build() {
  TBF_CHECK(!built_);
  if (std::string err = scenario::ValidateCampus(config_, bss_); !err.empty()) {
    throw scenario::ScenarioError("invalid campus: " + err);
  }
  built_ = true;

  lookahead_ = 0;
  for (const scenario::BssSpec& bss : bss_) {
    const TimeNs delay =
        bss.backbone_delay > 0 ? bss.backbone_delay : config_.backbone_delay;
    lookahead_ = lookahead_ == 0 ? delay : std::min(lookahead_, delay);
  }

  // The core seeds from the campus seed itself, cell i from seed + 1 + i, so every
  // shard draws an independent, reproducible stream.
  core_ = std::make_unique<CoreShard>();
  core_->rng = sim::Rng(config_.cell.seed);
  core_->stats = stats::StatsEngine(config_.cell.stats);
  campus_stats_ = stats::StatsEngine(config_.cell.stats);
  core_->to_cell.resize(bss_.size());  // Sized once: Mailbox addresses must be stable.

  cells_.reserve(bss_.size());
  for (size_t i = 0; i < bss_.size(); ++i) {
    const TimeNs link_delay =
        bss_[i].backbone_delay > 0 ? bss_[i].backbone_delay : config_.backbone_delay;
    auto shard = std::make_unique<CellShard>();
    shard->uplink =
        std::make_unique<ShardLink>(&shard->sim, &shard->to_core, config_.backbone_rate,
                                    link_delay, config_.backbone_queue_limit);
    ShardLink* up = shard->uplink.get();
    shard->cell = std::make_unique<scenario::Cell>(
        &shard->sim, &shard->pool, config_.cell, bss_[i].stations,
        config_.cell.seed + 1 + static_cast<uint64_t>(i),
        [up](net::PacketPtr p) { up->Send(std::move(p)); });
    cells_.push_back(std::move(shard));
    core_->downlinks.push_back(std::make_unique<ShardLink>(
        &core_->sim, &core_->to_cell[i], config_.backbone_rate, link_delay,
        config_.backbone_queue_limit));
  }

  // Flow ids are campus-wide, in declaration order. Each flow's server end runs in the
  // core and reaches its cell through that cell's downlink.
  int next_flow_id = 1;
  for (size_t i = 0; i < bss_.size(); ++i) {
    scenario::FlowSide core;
    core.sim = &core_->sim;
    core.pool = &core_->pool;
    core.demux = &core_->demux;
    core.rng = &core_->rng;
    core.stats = &core_->stats;
    ShardLink* down = core_->downlinks[i].get();
    core.send = [down](net::PacketPtr p) { down->Send(std::move(p)); };
    for (const scenario::FlowSpec& spec : bss_[i].flows) {
      cells_[i]->cell->AddFlow(spec, next_flow_id++, core);
    }
  }

  threads_ = std::min(threads_, shard_count());
  if (threads_ > 1) {
    pool_ = std::make_unique<Pool>(this, threads_, cells_.size() + 1);
  }
}

void CampusSim::AdvanceShard(size_t index, TimeNs until) {
  if (index < cells_.size()) {
    cells_[index]->sim.RunUntil(until);
  } else {
    core_->sim.RunUntil(until);
  }
}

// Drains every mailbox at a window barrier, on the coordinator thread, in a fixed
// order (per cell ascending: core->cell first, then cell->core). The order pins the
// schedule sequence numbers of equal-timestamp deliveries, which is what makes the
// campus bit-identical across shard-thread counts. Every posted arrival is strictly
// later than the barrier (the ShardLink invariant), so ScheduleAt never clamps.
void CampusSim::DrainMailboxes() {
  for (size_t i = 0; i < cells_.size(); ++i) {
    CellShard* shard = cells_[i].get();
    ap::AccessPoint* ap = &shard->cell->ap();
    for (const PacketRecord& r : core_->to_cell[i].pending()) {
      net::Packet* raw = Materialize(r, &shard->pool).Detach();
      shard->sim.ScheduleAt(r.arrival, [ap, raw] {
        ap->EnqueueDownlink(net::PacketPtr::Adopt(raw));
      });
    }
    core_->to_cell[i].Clear();
  }
  net::Demux* demux = &core_->demux;
  for (std::unique_ptr<CellShard>& cell : cells_) {
    for (const PacketRecord& r : cell->to_core.pending()) {
      net::Packet* raw = Materialize(r, &core_->pool).Detach();
      core_->sim.ScheduleAt(r.arrival, [demux, raw] {
        const net::PacketPtr p = net::PacketPtr::Adopt(raw);
        demux->Deliver(kServerId, p);
      });
    }
    cell->to_core.Clear();
  }
}

void CampusSim::RunWindows(TimeNs until) {
  while (t_ < until) {
    const TimeNs window_end = std::min(t_ + lookahead_, until);
    if (pool_ != nullptr) {
      pool_->RunWindow(window_end);
    } else {
      for (size_t k = 0; k < cells_.size() + 1; ++k) {
        AdvanceShard(k, window_end);
      }
    }
    DrainMailboxes();
    // Windowed metrology: seal every interval that ended at or before this barrier,
    // merging child windows into the campus engine in fixed order (cells ascending,
    // then core) before the campus engine seals - the same determinism recipe as the
    // mailbox drain above. All on the coordinator thread; shard threads are parked.
    if (config_.cell.stats.window > 0) {
      for (std::unique_ptr<CellShard>& shard : cells_) {
        shard->cell->stats().SealWindowsUpTo(window_end, &campus_stats_);
      }
      core_->stats.SealWindowsUpTo(window_end, &campus_stats_);
      campus_stats_.SealWindowsUpTo(window_end);
    }
    ++windows_;
    t_ = window_end;
  }
}

scenario::CampusResults CampusSim::Run() {
  if (!built_) {
    Build();
  }
  const scenario::ScenarioConfig& cc = config_.cell;

  RunWindows(cc.warmup);
  for (std::unique_ptr<CellShard>& shard : cells_) {
    shard->cell->SnapshotWarmup();
  }

  RunWindows(cc.warmup + cc.duration);

  // End-of-run metrology flush: children first (fixed order), then the campus engine,
  // so the partial last window and - in unwindowed streaming mode - the whole-run
  // meters land in the campus tree exactly once.
  for (std::unique_ptr<CellShard>& shard : cells_) {
    shard->cell->stats().FlushAll(&campus_stats_);
  }
  core_->stats.FlushAll(&campus_stats_);
  campus_stats_.FlushAll();

  scenario::CampusResults out;
  out.lookahead = lookahead_;
  out.windows = windows_;

  out.cells.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    CellShard* shard = cells_[i].get();
    scenario::Results& r = out.cells[i];
    // The per-cell sketches are the per-flow merges (retained flows only under
    // sampled retention); the per-cell series covers what this cell's shard observed.
    shard->cell->ReadOut(cc.duration, &r);

    out.aggregate_bps += r.aggregate_bps;
    out.tasks_completed += r.tasks_completed;
    out.mac_exchanges += r.mac_exchanges;
    out.mac_collisions += r.mac_collisions;
    out.rtt_sketch.Merge(r.rtt_sketch);
    out.ap_queue_delay_sketch.Merge(r.ap_queue_delay_sketch);
    out.task_latency_sketch.Merge(r.task_latency_sketch);

    out.cross_shard_packets += shard->uplink->sent() + core_->downlinks[i]->sent();
    out.backbone_drops += shard->uplink->drops() + core_->downlinks[i]->drops();
  }
  // Legacy exact mode: the campus-wide sketches are the per-cell merges above, byte-
  // identical to the pre-engine readout. Streaming modes: the campus engine's merge
  // tree carries every sample from every shard, so it replaces them.
  if (campus_stats_.HasCompleteMeters()) {
    out.rtt_sketch = campus_stats_.meter(stats::kRtt);
    out.ap_queue_delay_sketch = campus_stats_.meter(stats::kQueueDelay);
    out.task_latency_sketch = campus_stats_.meter(stats::kTaskLatency);
  }
  out.rtt = scenario::LatencySummary::FromSketch(out.rtt_sketch);
  out.ap_queue_delay = scenario::LatencySummary::FromSketch(out.ap_queue_delay_sketch);
  out.task_latency = scenario::LatencySummary::FromSketch(out.task_latency_sketch);
  out.rtt_series = campus_stats_.series(stats::kRtt);
  out.ap_queue_delay_series = campus_stats_.series(stats::kQueueDelay);
  out.task_latency_series = campus_stats_.series(stats::kTaskLatency);
  out.goodput_series = campus_stats_.bytes_series();
  return out;
}

size_t CampusSim::MetrologyBytes() const {
  size_t total = campus_stats_.MemoryFootprintBytes();
  for (const std::unique_ptr<CellShard>& shard : cells_) {
    total += shard->cell->stats().MemoryFootprintBytes();
  }
  if (core_ != nullptr) {
    total += core_->stats.MemoryFootprintBytes();
  }
  return total;
}

}  // namespace tbf::shard
