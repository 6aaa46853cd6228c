// Collective computation/communication primitives of the virtual
// architecture (Section 2: "Computation primitives could include summing,
// sorting, or ranking a set of data values from a set of sensor nodes",
// citing Bhuvaneswaran et al.).
//
// Each collective runs as an event-driven protocol on the VirtualNetwork:
// members transmit to the group leader (cost: hops x message size, per the
// middleware's advertised member-to-leader cost), and the leader performs
// the combining computation (cost: one op per received value). Completion is
// reported through a callback carrying the result and the finish time.
//
// A collective temporarily owns the receive handlers of the participating
// nodes; interleave collectives on disjoint groups only.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/fabric.h"

namespace wsn::core {

/// Reduction operators for group_reduce_deadline.
enum class ReduceOp : std::uint8_t { kSum, kMax, kMin, kCount };

/// Result of a broadcast or barrier.
struct CollectiveResult {
  double value = 0.0;       // the broadcast value (0 for a barrier)
  sim::Time finished = 0;   // simulation time at completion
  std::uint32_t messages = 0;
};

/// Result of a gathering collective (reduce, sort, rank): instead of hanging
/// on a crashed or unreachable member, the leader closes the round at the
/// deadline with whatever contributions arrived. `contributors` ⊆
/// `expected` always; the leader itself contributes locally and is always
/// present (when it is a member).
struct PartialResult {
  double value = 0.0;                // folded over contributors only
  std::vector<GridCoord> contributors;  // members whose value arrived
  std::vector<GridCoord> expected;      // the full member list
  sim::Time finished = 0;
  std::uint32_t messages = 0;
  bool deadline_hit = false;         // true iff the round closed by timeout
  /// Contributions rejected because their binding epoch was older than the
  /// fabric's current epoch for that member — a deposed leader's in-flight
  /// value that must not be folded (it would double-count once the re-bound
  /// leader contributes for the same virtual node).
  std::uint32_t stale_rejected = 0;

  bool complete() const { return contributors.size() == expected.size(); }
  /// Members whose contribution never arrived — the degraded round's
  /// suspect list (feeds liveness probing / failover).
  std::vector<GridCoord> missing() const;
};

/// Leader-to-group broadcast of a scalar along per-member shortest paths.
/// `done` fires when the last member has received the value.
void group_broadcast(MessageFabric& fabric, const GridCoord& leader,
                     std::span<const GridCoord> members, double value,
                     double message_units,
                     std::function<void(const CollectiveResult&)> done);

/// Barrier synchronization over a group (the UW-API facility Section 6
/// relates to: "even barrier synchronization is supported for the sensor
/// nodes that lie within a region"): every member signals the leader; once
/// all have arrived the leader releases them; `done` fires when the last
/// member has observed the release.
void group_barrier(MessageFabric& fabric, std::span<const GridCoord> members,
                   const GridCoord& leader, double message_units,
                   std::function<void(const CollectiveResult&)> done);

// ---- Gathering collectives: reduce, sort, rank ----------------------------
//
// One engine serves all three: every member sends its value, tagged with
// its index and binding epoch, to the leader, which folds it in for one op.
// The round closes on the last contribution or on a timer `deadline` time
// units after the start, whichever comes first, and `done` receives a
// PartialResult instead of hanging forever on a lossy or fault-injected
// fabric. Duplicate contributions and a deposed leader's stale-epoch value
// are dropped; contributions arriving after the close are ignored (traced
// as kCollective "late" events). A deadline of kNoDeadline arms no timer, so
// the round closes on its last contribution.

/// The deadline that arms no timer: the round waits for every member.
inline constexpr sim::Time kNoDeadline =
    std::numeric_limits<sim::Time>::infinity();

/// Folds `op` (sum/max/min/count) over the contributors' values in member
/// order; `values[i]` belongs to `members[i]`.
void group_reduce_deadline(MessageFabric& fabric,
                           std::span<const GridCoord> members,
                           const GridCoord& leader,
                           std::span<const double> values, ReduceOp op,
                           double message_units, sim::Time deadline,
                           std::function<void(const PartialResult&)> done);

/// Sorts at the leader (|g| log |g| compute ops): `done` receives the
/// sorted values of the contributors only (result.value = contributor count).
void group_sort_deadline(
    MessageFabric& fabric, std::span<const GridCoord> members,
    const GridCoord& leader, std::span<const double> values,
    double message_units, sim::Time deadline,
    std::function<void(std::vector<double>, PartialResult)> done);

/// Ranks (0-based, by ascending value, ties by member order) are computed
/// among contributors only and `ranks[i]` aligns with
/// `result.contributors[i]`. The leader scatters each contributor its rank
/// fire-and-forget (a degraded round must not block on members that may be
/// gone); `done` fires after the leader's sort/compute, not after scatter
/// delivery.
void group_rank_deadline(
    MessageFabric& fabric, std::span<const GridCoord> members,
    const GridCoord& leader, std::span<const double> values,
    double message_units, sim::Time deadline,
    std::function<void(std::vector<std::uint32_t>, PartialResult)> done);

}  // namespace wsn::core
