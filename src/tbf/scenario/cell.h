// The radio side of one BSS, built and read out the same way by every scenario builder.
//
// A Cell owns and wires everything between the AP's wired port and the air: the Rng,
// the fixed/SNR loss models and their dispatcher, the DCF medium, the AP (rate
// controller plus the qdisc MakeQdisc selects), one rate controller and WirelessHost
// per station, TBR's contention pin and client-agent hook, the cell's StatsEngine with
// the AP queue-delay tap, and the flows of its stations. scenario::Wlan is one Cell
// whose AP uplink feeds an in-process WiredLink; shard::CampusSim builds one Cell per
// BSS shard whose uplink feeds a ShardLink into the core shard. Those two inputs - the
// seed and the uplink port - are all that differs, so a one-BSS campus whose backbone
// matches the Wlan wired link reproduces the Wlan's results exactly.
//
// Construction order is part of the contract: the station loop associates every
// station (which starts TBR's timers) in declaration order, and every shard's event
// sequence numbers and RNG draws follow from it.
#ifndef TBF_SCENARIO_CELL_H_
#define TBF_SCENARIO_CELL_H_

#include <map>
#include <memory>
#include <vector>

#include "tbf/ap/access_point.h"
#include "tbf/core/tbr.h"
#include "tbf/mac/medium.h"
#include "tbf/net/demux.h"
#include "tbf/net/host.h"
#include "tbf/net/packet.h"
#include "tbf/phy/channel.h"
#include "tbf/rateadapt/rate_controller.h"
#include "tbf/scenario/flow_engine.h"
#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"

namespace tbf::scenario {

class Cell {
 public:
  // Builds the BSS in the shard that owns `sim` and `pool` (both must outlive the
  // Cell). `seed` seeds the cell's Rng; `uplink` receives every frame the AP forwards
  // beyond the cell.
  Cell(sim::Simulator* sim, net::PacketPool* pool, const ScenarioConfig& config,
       const std::vector<StationSpec>& stations, uint64_t seed,
       ap::AccessPoint::ForwardFn uplink);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  // Wires one flow between its station here and `wired` (the server end; see
  // WireFlow) and keeps it for the readout.
  void AddFlow(const FlowSpec& spec, int flow_id, const FlowSide& wired);

  // Marks the end of the warmup: the readout measures from here.
  void SnapshotWarmup();

  // The window readout (the `duration` after SnapshotWarmup): airtime shares, per-flow
  // results with the cell sketches merged from them, the Table 1 aggregates, this
  // cell's series, and the MAC/AP counters. Call after the stats engine is flushed.
  void ReadOut(TimeNs duration, Results* out) const;

  ap::AccessPoint& ap() { return ap_; }
  mac::Medium& medium() { return medium_; }
  net::Demux& demux() { return demux_; }
  sim::Rng& rng() { return rng_; }
  stats::StatsEngine& stats() { return stats_; }
  core::TimeBasedRegulator* tbr() { return tbr_; }
  net::WirelessHost* host(NodeId id);

 private:
  sim::Simulator* sim_;
  net::PacketPool* pool_;
  // Written only by this cell's shard: the queue-delay tap plus the task/RTT meters
  // and delivered bytes of the flow ends that run here.
  stats::StatsEngine stats_;
  sim::Rng rng_;
  phy::FixedPerLink fixed_loss_;
  phy::SnrLossModel snr_loss_;
  phy::DispatchLossModel loss_;  // Dispatches per client to the two above.
  mac::Medium medium_;
  rateadapt::CompositeRateController ap_rates_;
  core::TimeBasedRegulator* tbr_ = nullptr;  // The AP qdisc when it is a TBR kind.
  ap::AccessPoint ap_;
  net::Demux demux_;
  std::map<NodeId, std::unique_ptr<net::WirelessHost>> hosts_;
  std::vector<std::unique_ptr<FlowEngine>> flows_;

  std::map<NodeId, TimeNs> airtime_at_warmup_;
  TimeNs busy_at_warmup_ = 0;
};

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_CELL_H_
