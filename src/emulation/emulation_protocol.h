// Topology emulation protocol (Section 5.1).
//
// Goal: every physical node ends up with a routing table
//   rtab_i : {NORTH, EAST, SOUTH, WEST} -> NodeId | NULL
// giving its next hop toward the adjacent grid cell in each direction.
//
// Protocol, exactly as in the paper:
//   1. Localization/neighbor discovery has happened: each node knows VP(s)
//      for itself and its one-hop neighbors. Entries reachable in one hop
//      are filled directly: rtab_i(d) = s_j if s_j is a one-hop neighbor
//      lying in the d-adjacent cell.
//   2. Each node broadcasts its (small) routing table to its neighbors.
//   3. On receiving a table from s_j: if VP(s_j) != VP(s_i) the message is
//      ignored (suppressed after crossing exactly one cell boundary).
//      Otherwise, for every direction d where s_j has an entry and s_i does
//      not, s_i sets rtab_i(d) = s_j and, having changed, rebroadcasts.
//
// The protocol's efficiency claims - parallel path setup per cell, at most
// one boundary crossing per message, latency proportional to the longest
// intra-cell shortest path - are measured by bench_topology_emulation and
// asserted by tests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "emulation/cell_mapper.h"
#include "net/link_layer.h"
#include "obs/metrics_registry.h"
#include "sim/trace.h"

namespace wsn::emulation {

/// Per-node routing table: next hop toward each grid direction, or kNoNode.
struct RoutingTable {
  std::array<net::NodeId, 4> next_hop = {net::kNoNode, net::kNoNode,
                                         net::kNoNode, net::kNoNode};

  net::NodeId operator[](core::Direction d) const {
    return next_hop[static_cast<std::size_t>(d)];
  }
  net::NodeId& operator[](core::Direction d) {
    return next_hop[static_cast<std::size_t>(d)];
  }
  bool has(core::Direction d) const { return (*this)[d] != net::kNoNode; }
};

/// Outcome and audit data of one protocol execution.
struct EmulationResult {
  std::vector<RoutingTable> tables;     // indexed by NodeId
  std::uint64_t broadcasts = 0;         // table broadcasts transmitted
  std::uint64_t deliveries = 0;         // table receptions processed
  std::uint64_t suppressed = 0;         // receptions ignored (foreign cell)
  std::uint64_t adoptions = 0;          // table entries learned multi-hop
  double converged_at = 0.0;            // simulation time of quiescence
  bool boundary_audit_passed = true;    // no message traveled >1 cell
};

/// Registers the audit counts of a completed emulation run (by value — the
/// snapshot does not track later runs) under `prefix` in the registry.
inline void register_metrics(obs::MetricsRegistry& registry,
                             const EmulationResult& result,
                             const std::string& prefix = "emulation") {
  registry.add_gauge(prefix + ".broadcasts", [v = result.broadcasts] {
    return static_cast<double>(v);
  });
  registry.add_gauge(prefix + ".deliveries", [v = result.deliveries] {
    return static_cast<double>(v);
  });
  registry.add_gauge(prefix + ".suppressed", [v = result.suppressed] {
    return static_cast<double>(v);
  });
  registry.add_gauge(prefix + ".adoptions", [v = result.adoptions] {
    return static_cast<double>(v);
  });
  registry.add_gauge(prefix + ".converged_at",
                     [v = result.converged_at] { return v; });
}

/// Runs the protocol to quiescence on `link` and returns the tables.
///
/// `jitter` staggers the initial broadcasts uniformly in [0, jitter) to
/// model unsynchronized starts (0 = simultaneous). Nodes marked down at the
/// link layer neither participate nor appear in anyone's table.
EmulationResult run_topology_emulation(net::LinkLayer& link,
                                       const CellMapper& mapper,
                                       double jitter = 0.0);

/// Periodic re-execution after topology change (Section 5.1: "since new
/// nodes can be added to the network or existing nodes can leave or fail,
/// the above protocol should execute periodically"). Entries of `previous`
/// that point at down nodes are purged, direct entries are recomputed from
/// live neighbors, and the protocol re-runs to quiescence; surviving valid
/// entries are kept, so the repair converges with fewer adoptions than a
/// cold start.
EmulationResult run_topology_repair(net::LinkLayer& link,
                                    const CellMapper& mapper,
                                    std::vector<RoutingTable> previous,
                                    double jitter = 0.0);

/// Clears every table entry whose next hop is `via` (a node suspected or
/// known dead) and re-points it at another live neighbor lying directly in
/// the entry's target cell, when one exists (`excluded` filters additional
/// suspects). Entries with no such neighbor stay kNoNode — deliberately no
/// same-cell chaining, which could loop; full re-convergence remains
/// run_topology_repair's job. Unlike run_topology_repair this is a purely
/// local O(n) pass — no chain verification, no protocol re-run — so it is
/// safe inside an event callback, such as the reaction to an ARQ give-up:
/// local, message-free, deterministic.
struct RerouteStats {
  std::size_t rerouted = 0;    // entries repaired to an alternate gateway
  std::size_t unroutable = 0;  // entries cleared with no local alternative
};
RerouteStats reroute_entries_via(
    std::vector<RoutingTable>& tables, net::NodeId via,
    const net::LinkLayer& link, const CellMapper& mapper,
    const std::function<bool(net::NodeId)>& excluded);

/// Relay-load shedding for a node that is still ALIVE but should stop
/// carrying inter-cell traffic (an energy-drained leader that just handed
/// off): entries with a live alternate gateway in the same target cell move
/// to it; entries with no alternative KEEP `via` — unlike the crash-path
/// reroute above, the node can still carry them, so no black hole is
/// created. Returns the number of entries moved.
std::size_t evacuate_entries_via(
    std::vector<RoutingTable>& tables, net::NodeId via,
    const net::LinkLayer& link, const CellMapper& mapper,
    const std::function<bool(net::NodeId)>& excluded);

/// Direction from cell `from` toward adjacent cell `to`, if they are
/// 4-adjacent on the grid.
std::optional<core::Direction> adjacent_direction(const core::GridCoord& from,
                                                  const core::GridCoord& to);

/// Follows the routing-table chain from `start` toward direction `d` until
/// the walk leaves the starting cell; returns the hop sequence including the
/// first node of the adjacent cell, or an empty vector if the chain dead-
/// ends or cycles (should not happen after convergence).
std::vector<net::NodeId> follow_chain(const CellMapper& mapper,
                                      const std::vector<RoutingTable>& tables,
                                      net::NodeId start, core::Direction d);

}  // namespace wsn::emulation
