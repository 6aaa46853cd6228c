// Deterministic fault campaigns: a replayable schedule of timed failures.
//
// Section 5.1 motivates periodic protocol re-execution with nodes that
// "leave or fail"; the robustness layer needs those failures to be *the
// same* across two runs so that recovery behaviour is testable and every
// bench row is reproducible. A FaultPlan is a list of timed fault events —
// node crash, node recovery, loss-burst windows, regional outage over a
// rectangle of grid cells — loadable from a small JSON spec so tests,
// benches, and `wsn-chaos --plan` replay identical campaigns. The
// FaultInjector schedules the plan on the simulator's own event queue
// against either the physical LinkLayer (optionally with a CellMapper to
// resolve cell-scoped events) or the virtual-layer VirtualNetwork.
//
// All timing comes from the plan and all randomness from the simulator's
// seeded RNG, so seed + plan fully determine the run (the campaign
// determinism tests assert byte-identical traces).
//
// JSON shape:
//   {"events": [
//     {"at": 5.0, "kind": "crash",   "node": 12},
//     {"at": 6.0, "kind": "crash",   "cell": {"row": 0, "col": 4}},
//     {"at": 9.0, "kind": "recover", "node": 12},
//     {"at": 3.0, "kind": "loss_burst", "loss": 0.2, "duration": 4.0},
//     {"at": 7.0, "kind": "region_outage",
//      "row0": 0, "col0": 0, "row1": 1, "col1": 1, "duration": 5.0},
//     {"at": 2.0, "kind": "set_budget", "node": 7, "budget": 40.0},
//     {"at": 2.0, "kind": "set_budget", "cell": {"row": 1, "col": 2},
//      "headroom": 25.0},
//     {"at": 8.0, "kind": "state_corruption", "node": 4, "target": "epoch"},
//     {"at": 9.0, "kind": "state_corruption",
//      "cell": {"row": 2, "col": 3}, "target": "leader"}
//   ]}
// A "cell"-targeted crash, set_budget, or state_corruption resolves to the
// cell's currently bound leader at fire time (see
// FaultInjector::set_leader_lookup), so plans stay independent of the
// seeded deployment's node ids.
//
// state_corruption scrambles a live node's *soft* protocol state (nothing
// physical goes down): "target" selects the victim state — "epoch" (binding
// epoch regressed or jumped), "leader" (believed-leader pointer repointed),
// "routes" (overlay route-table entries scrambled), "leases"
// (failure-detector lease / suspicion state poisoned), or "membership"
// (cell belief defected to a neighboring cell, or a leader's member roster
// scrambled — see emulation::MembershipView). The concrete
// scrambled values are drawn from the simulator's seeded RNG at fire time,
// so a plan + seed fully determine the corrupted state (the self-
// stabilization soak replays byte-identically). Corrupting a down node is
// a no-op that bumps the "fault.corrupt_down" counter.
//
// set_budget gives the target a finite battery (EnergyLedger::set_budget):
// "budget" is absolute; "headroom" resolves at fire time to the node's
// cumulative spend + headroom, guaranteeing the node has exactly that much
// energy left no matter how much setup traffic preceded the campaign —
// which is what makes depletion campaigns portable across stack seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/grid_topology.h"
#include "net/deployment.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wsn::core {
class VirtualNetwork;
}
namespace wsn::net {
class LinkLayer;
}
namespace wsn::emulation {
class CellMapper;
}

namespace wsn::sim {

enum class FaultKind : std::uint8_t {
  kCrash,            // one node goes down (permanently, unless recovered)
  kRecover,          // one node comes back up
  kLossBurst,        // flat link-loss probability raised for a window
  kRegionOutage,     // every node in a rectangle of grid cells down for a window
  kSetBudget,        // one node's battery becomes finite (depletion fault)
  kStateCorruption,  // one live node's soft protocol state is scrambled
};

/// Which slice of a node's soft state a state_corruption event scrambles.
enum class CorruptionTarget : std::uint8_t {
  kEpoch,       // binding epoch regressed or jumped
  kLeader,      // believed-leader pointer repointed
  kRoutes,      // overlay route-table entries scrambled
  kLeases,      // failure-detector lease / suspicion state poisoned
  kMembership,  // cell belief defected / leader member roster scrambled
};

/// Stable name used in plan JSON ("epoch" / "leader" / "routes" / "leases"
/// / "membership"); trace attributes carry the same word as trace_code().
/// Both inline so protocol layers (emulation::FailureDetector) can name
/// targets without linking the fault library.
inline const char* to_string(CorruptionTarget target) {
  switch (target) {
    case CorruptionTarget::kEpoch:
      return "epoch";
    case CorruptionTarget::kLeader:
      return "leader";
    case CorruptionTarget::kRoutes:
      return "routes";
    case CorruptionTarget::kLeases:
      return "leases";
    case CorruptionTarget::kMembership:
      return "membership";
  }
  return "unknown";
}

/// The same name as a trace attribute code (the `target` of fault.corrupt
/// and fd.corrupt).
inline obs::AttrCode trace_code(CorruptionTarget target) {
  static constexpr obs::AttrCode kCodes[] = {"epoch", "leader", "routes",
                                             "leases", "membership"};
  return kCodes[static_cast<std::size_t>(target)];
}

/// Parses a corruption-target name; returns false on an unknown name.
inline bool parse_corruption_target(const std::string& name,
                                    CorruptionTarget& out) {
  if (name == "epoch") {
    out = CorruptionTarget::kEpoch;
  } else if (name == "leader") {
    out = CorruptionTarget::kLeader;
  } else if (name == "routes") {
    out = CorruptionTarget::kRoutes;
  } else if (name == "leases") {
    out = CorruptionTarget::kLeases;
  } else if (name == "membership") {
    out = CorruptionTarget::kMembership;
  } else {
    return false;
  }
  return true;
}

struct FaultEvent {
  /// Offset from the campaign start (arm() time), not an absolute sim time:
  /// plans stay portable across setups that consume different amounts of
  /// simulated time before the campaign begins.
  Time at = 0.0;
  FaultKind kind = FaultKind::kCrash;
  /// Target of crash/recover/set_budget, by physical node id / virtual
  /// grid index...
  net::NodeId node = net::kNoNode;
  /// ...or by grid cell: resolved to the cell's bound leader at fire time.
  /// Valid when row/col >= 0.
  core::GridCoord cell{-1, -1};
  /// kLossBurst: flat loss probability during the window.
  double loss = 0.0;
  /// kLossBurst / kRegionOutage: window length.
  Time duration = 0.0;
  /// kRegionOutage: inclusive rectangle of grid cells.
  std::int32_t row0 = 0, col0 = 0, row1 = 0, col1 = 0;
  /// kSetBudget: exactly one of these is >= 0. `budget` is an absolute
  /// battery; `headroom` resolves to spend-at-fire-time + headroom.
  double budget = -1.0;
  double headroom = -1.0;
  /// kStateCorruption: which slice of soft state gets scrambled.
  CorruptionTarget target = CorruptionTarget::kEpoch;
  /// Source line in plan JSON, for error messages; 0 when built in code.
  std::size_t line = 0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Parses the JSON spec above; throws std::runtime_error on malformed
  /// input. Every message names a source line: "fault plan line 3: ..."
  /// for a syntax error or a document without an "events" array, "fault
  /// plan line 7, event #2: ..." for an offending entry (a field of the
  /// wrong type names the field's own line). Rejected beyond shape and
  /// type errors: unknown kinds, negative times or durations, out-of-range
  /// loss, empty region rectangles, a node that is not an integer below
  /// kNoNode, a cell or rectangle bound that is not an int32 integer, and a
  /// node-targeted crash scheduled while the same node is already down
  /// (crash-without-recover overlap).
  static FaultPlan from_json(const std::string& text);

  /// Serializes back to the JSON spec (round-trips through from_json);
  /// chaos campaigns persist failing plans with this for replay.
  std::string to_json() const;

  /// Latest time (campaign-relative) at which any plan-driven outage ends:
  /// recover events and region-outage windows contribute their end, a crash
  /// with no later recover contributes its own time (it never ends, but the
  /// protocol's detection starts there), and a set_budget contributes its
  /// own time (the depletion death lands at some later, drain-dependent
  /// tick). Loss bursts are excluded — links stay up during them.
  /// sim::ChaosSoak settles a campaign past this horizon before checking it.
  Time down_horizon() const;
};

/// Applies a FaultPlan to a live network at simulation time. Construct
/// against the target, arm() once before running the simulator; every fault
/// application emits a Category::kReliability "fault.*" TraceEvent and
/// bumps a "fault.*" counter.
class FaultInjector {
 public:
  /// Physical target. `mapper` is required only for cell-scoped events
  /// (cell-targeted crash, region outage).
  FaultInjector(Simulator& sim, net::LinkLayer& link,
                const emulation::CellMapper* mapper = nullptr);
  /// Virtual target: crashes suppress the virtual node's process; loss
  /// bursts are skipped (the virtual layer is lossless by construction).
  FaultInjector(Simulator& sim, core::VirtualNetwork& vnet);

  /// Resolves cell-targeted crashes to the cell's current bound leader at
  /// fire time (e.g. [&overlay](c) { return overlay.bound_node(c); }).
  void set_leader_lookup(
      std::function<net::NodeId(const core::GridCoord&)> fn) {
    leader_lookup_ = std::move(fn);
  }

  /// Receives state_corruption events at fire time (e.g. bound to
  /// FailureDetector::inject_corruption). Returns true if any state was
  /// actually scrambled. Without an applier, corruption events count as
  /// unapplied ("fault.corrupt_unwired").
  void set_corruption_applier(
      std::function<bool(net::NodeId, CorruptionTarget)> fn) {
    corruption_applier_ = std::move(fn);
  }

  /// Schedules every event of `plan` on the simulator, `at` seconds from
  /// now. Negative offsets fire immediately. Throws std::runtime_error,
  /// naming the event (and its line, for a plan from JSON) and scheduling
  /// nothing, if a node-targeted event names a node outside the network or
  /// a cell-targeted one a cell outside the grid.
  void arm(const FaultPlan& plan);

  CounterSet& counters() { return counters_; }

  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "fault") const;

 private:
  enum class Counter : std::uint8_t {
    kBurst, kCorrupt, kCorruptDown, kCorruptUnwired, kCrash, kOutage,
    kRecover, kSetBudget, kSkipped, kUnresolved, kCount
  };
  static constexpr std::string_view kCounterNames[] = {
      "fault.burst", "fault.corrupt", "fault.corrupt_down",
      "fault.corrupt_unwired", "fault.crash", "fault.outage",
      "fault.recover", "fault.set_budget", "fault.skipped",
      "fault.unresolved"};
  static_assert(counter_table_ok<Counter>(kCounterNames));

  void check_target(const FaultEvent& ev, std::size_t index) const;
  void fire(const FaultEvent& ev);
  /// The node `ev` targets: its node, or its cell's bound leader right now.
  /// kNoNode, counted unresolved, when the cell has no bound leader.
  net::NodeId resolve_target(const FaultEvent& ev);
  void apply_down(net::NodeId node, bool down, obs::EventName trace_name);
  bool is_node_down(net::NodeId node) const;

  Simulator& sim_;
  net::LinkLayer* link_ = nullptr;
  core::VirtualNetwork* vnet_ = nullptr;
  const emulation::CellMapper* mapper_ = nullptr;
  std::function<net::NodeId(const core::GridCoord&)> leader_lookup_;
  std::function<bool(net::NodeId, CorruptionTarget)> corruption_applier_;
  CounterSet counters_{kCounterNames};
};

}  // namespace wsn::sim
