// The per-flow runtime shared by every scenario builder.
//
// A FlowEngine is one constructed flow: the transport endpoints it owns and the
// finite-task bookkeeping that restarts transfers (task sequences, on/off draws, trace
// replays). Latency samples and delivered bytes are recorded through the owning shard's
// stats::StatsEngine (see docs/metrology.md), never stored here - the engine struct
// stays O(1) per flow. WireFlow is the one place a flow's endpoints are placed and
// wired, for scenario::Wlan and shard::CampusSim alike (both reach it through
// scenario::Cell): it is handed the flow's cell side and wired side, which are one
// shard in a Wlan and two in a sharded campus. The engine's task state always lives in
// exactly one shard - the one whose Simulator fires its callbacks - so none of it
// needs synchronization: TCP engines sit with the sender, where task completion is
// observed via the final cumulative ack; UDP engines with the sink, where delivery is
// counted. The far endpoint runs in the opposite side's Simulator.
#ifndef TBF_SCENARIO_FLOW_ENGINE_H_
#define TBF_SCENARIO_FLOW_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tbf/net/demux.h"
#include "tbf/net/packet.h"
#include "tbf/net/tcp.h"
#include "tbf/net/udp.h"
#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"

namespace tbf::scenario {

struct FlowEngine {
  FlowSpec spec;
  int flow_id = -1;
  // When the first transfer actually begins: spec.start plus the CBR stagger for UDP
  // flows. Task completions are reported relative to this, which makes
  // AvgTaskTime/FinalTaskTime independent of the stagger and of where the warmup ends.
  TimeNs actual_start = 0;

  // The simulator, rng and stats engine of the shard this engine lives in (single-cell
  // scenarios have exactly one of each). Set by WireFlow before any task runs.
  sim::Simulator* sim = nullptr;
  sim::Rng* rng = nullptr;
  stats::StatsEngine* stats = nullptr;
  // The receiver's shard, where OnDelivered runs and records. It differs from the
  // engine's shard only for a sharded campus TCP flow, whose engine sits with the sender.
  sim::Simulator* rx_sim = nullptr;
  stats::StatsEngine* rx_stats = nullptr;

  // The flow's endpoints: one sender and one receiver, each running in its side's
  // Simulator (in a sharded campus the far one belongs to the opposite shard).
  std::unique_ptr<net::TcpSender> tcp_sender;
  std::unique_ptr<net::TcpReceiver> tcp_receiver;
  std::unique_ptr<net::UdpSource> udp_source;
  std::unique_ptr<net::UdpSink> udp_sink;

  // Total payload delivered (from flow start). Written only by the receiver's shard and
  // read by other shards only at barriers.
  int64_t delivered_bytes = 0;
  int64_t window_snapshot = 0;   // Delivered bytes at warmup.

  // Finite-task bookkeeping. `task_target` is the cumulative payload target of the
  // task in flight (grown per task so restarts share one sequence space); UDP tasks
  // complete when the sink has delivered it, TCP tasks when the sender reports Done.
  int64_t task_target = 0;
  int tasks_started = 0;
  TimeNs task_started_at = 0;            // When the task in flight began transferring.
  // kTraceReplay: the next task's logged due time. Durations anchor here instead of at
  // the actual launch, so a backlogged replay charges the user's waiting time to the
  // transfer (sojourn from logged arrival) instead of silently excluding it. -1 = unset.
  TimeNs next_task_due = -1;
  size_t replay_next = 1;                // kTraceReplay: index of the next logged task.

  bool HasTasks() const { return task_target > 0; }

  // Sizes the first transfer (drawing from `rng` for on/off flows) and returns the
  // flow's start instant - `flow_start` shifted to the first logged arrival for trace
  // replays. Sets task_target (the first task's bytes; 0 keeps the flow unbounded)
  // and tasks_started.
  TimeNs InitFirstTask(TimeNs flow_start);

  // Delivery-side accounting, on the receiver's shard; UDP finite tasks complete here
  // (no acks).
  void OnDelivered(int64_t bytes);

  // Task chaining: records the task that just finished and, for sequence, on/off and
  // replay flows, queues the next transfer (after the think/gap time).
  void OnTaskComplete();
  void QueueNextTask(int64_t bytes, TimeNs delay);
};

// One side of a flow's path: the shard its endpoints on that side run in, and how a
// packet leaves them - into the client station's uplink queue on the cell side, onto
// the backbone toward the AP on the wired side.
struct FlowSide {
  sim::Simulator* sim = nullptr;
  net::PacketPool* pool = nullptr;
  net::Demux* demux = nullptr;
  sim::Rng* rng = nullptr;
  stats::StatsEngine* stats = nullptr;
  std::function<void(net::PacketPtr)> send;
};

// Places `flow`'s endpoints (flow->spec and flow->flow_id set) on its `cell` and
// `wired` sides, registers the flow wherever a shard records for it (the engine's
// shard, the cell - the AP queue-delay tap always fires there - and the receiver's),
// and starts it. `flow` must outlive every endpoint callback.
void WireFlow(FlowEngine* flow, const FlowSide& cell, const FlowSide& wired);

// Folds one engine's measurement-window readout into `results`: the FlowResult, the
// merged cell-wide sketches (retained flows only under sampled retention), per-client
// goodput, and the Table 1 task aggregates accumulated via `sum_task_sec`/
// `table1_tasks` (the caller divides at the end). Task and RTT meters come from the
// engine's own stats engine; `queue_meters` is the stats engine of the flow's *cell*,
// where the AP qdisc tap always records - for downlink campus flows the two differ.
void AccumulateFlowResult(const FlowEngine& flow, double window_sec,
                          const stats::StatsEngine& queue_meters, Results* results,
                          double* sum_task_sec, int64_t* table1_tasks);

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_FLOW_ENGINE_H_
