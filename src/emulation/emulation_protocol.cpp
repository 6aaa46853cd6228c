#include "emulation/emulation_protocol.h"

#include <memory>
#include <unordered_set>

#include "obs/trace.h"

namespace wsn::emulation {
namespace {

/// Table advertisement: which directions the sender can already route to.
/// The table is "small" (Section 5.1): four booleans plus the sender id,
/// well within one data unit.
struct TableMsg {
  net::NodeId sender;
  std::array<bool, 4> has;
};

constexpr double kTableMsgUnits = 1.0;

struct ProtocolState {
  std::vector<RoutingTable> tables;
  std::vector<bool> broadcast_pending;
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t adoptions = 0;
  bool boundary_audit_passed = true;
};

std::array<bool, 4> known_directions(const RoutingTable& t) {
  std::array<bool, 4> has{};
  for (core::Direction d : core::kAllDirections) {
    has[static_cast<std::size_t>(d)] = t.has(d);
  }
  return has;
}

}  // namespace

std::optional<core::Direction> adjacent_direction(const core::GridCoord& from,
                                                  const core::GridCoord& to) {
  for (core::Direction d : core::kAllDirections) {
    if (core::GridTopology::step(from, d) == to) return d;
  }
  return std::nullopt;
}

namespace {

/// Fills direct (one-hop) entries from live neighbors lying in an adjacent
/// cell. "Some entries of the routing table can be filled in using the
/// initially available information."
void fill_direct_entries(const net::LinkLayer& link, const CellMapper& mapper,
                         std::vector<RoutingTable>& tables) {
  const auto& graph = link.graph();
  for (net::NodeId i = 0; i < graph.node_count(); ++i) {
    if (link.is_down(i)) continue;
    const core::GridCoord my_cell = mapper.cell_of(i);
    for (net::NodeId j : graph.neighbors(i)) {
      if (link.is_down(j)) continue;
      const core::GridCoord their_cell = mapper.cell_of(j);
      if (their_cell == my_cell) continue;
      if (auto d = adjacent_direction(my_cell, their_cell);
          d && !tables[i].has(*d)) {
        tables[i][*d] = j;
      }
    }
  }
}

EmulationResult run_protocol(net::LinkLayer& link, const CellMapper& mapper,
                             std::vector<RoutingTable> initial, double jitter);

}  // namespace

EmulationResult run_topology_emulation(net::LinkLayer& link,
                                       const CellMapper& mapper,
                                       double jitter) {
  std::vector<RoutingTable> tables(link.graph().node_count());
  fill_direct_entries(link, mapper, tables);
  return run_protocol(link, mapper, std::move(tables), jitter);
}

EmulationResult run_topology_repair(net::LinkLayer& link,
                                    const CellMapper& mapper,
                                    std::vector<RoutingTable> previous,
                                    double jitter) {
  // Purge to a fixpoint every entry whose full chain no longer reaches the
  // adjacent cell through live nodes (nodes probing their routes). Clearing
  // one entry can break upstream chains, hence the loop. Starting the
  // protocol from verified chains only is what precludes adoption cycles:
  // an advertised direction always terminates at a live gateway.
  for (net::NodeId i = 0; i < previous.size(); ++i) {
    if (link.is_down(i)) previous[i] = RoutingTable{};
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (net::NodeId i = 0; i < previous.size(); ++i) {
      if (link.is_down(i)) continue;
      for (core::Direction d : core::kAllDirections) {
        if (!previous[i].has(d)) continue;
        const auto chain = follow_chain(mapper, previous, i, d);
        bool valid = !chain.empty();
        if (valid) {
          for (net::NodeId hop : chain) {
            if (link.is_down(hop)) valid = false;
          }
          if (valid &&
              mapper.cell_of(chain.back()) !=
                  core::GridTopology::step(mapper.cell_of(i), d)) {
            valid = false;
          }
        }
        if (!valid) {
          previous[i][d] = net::kNoNode;
          changed = true;
        }
      }
    }
  }
  fill_direct_entries(link, mapper, previous);
  return run_protocol(link, mapper, std::move(previous), jitter);
}

namespace {

EmulationResult run_protocol(net::LinkLayer& link, const CellMapper& mapper,
                             std::vector<RoutingTable> initial, double jitter) {
  auto& sim = link.simulator();
  const auto& graph = link.graph();
  const std::size_t n = graph.node_count();

  auto state = std::make_shared<ProtocolState>();
  state->tables = std::move(initial);
  state->broadcast_pending.assign(n, false);

  auto schedule_broadcast = [state, &link](net::NodeId i) {
    if (state->broadcast_pending[i]) return;
    state->broadcast_pending[i] = true;
    link.simulator().post([state, &link, i]() {
      state->broadcast_pending[i] = false;
      ++state->broadcasts;
      link.broadcast(i, TableMsg{i, known_directions(state->tables[i])},
                     kTableMsgUnits);
    });
  };

  // Receive rule: suppress foreign-cell tables; adopt unseen directions from
  // same-cell neighbors and rebroadcast on change.
  for (net::NodeId i = 0; i < n; ++i) {
    link.set_receiver(i, [state, &link, &mapper, schedule_broadcast,
                          i](const net::Packet& pkt) {
      ++state->deliveries;
      const auto msg = std::any_cast<TableMsg>(pkt.payload);
      if (mapper.cell_of(msg.sender) != mapper.cell_of(i)) {
        // Crossed one cell boundary; suppressed, never forwarded further.
        ++state->suppressed;
        return;
      }
      bool changed = false;
      for (core::Direction d : core::kAllDirections) {
        if (msg.has[static_cast<std::size_t>(d)] && !state->tables[i].has(d)) {
          state->tables[i][d] = msg.sender;
          ++state->adoptions;
          changed = true;
        }
      }
      if (changed) {
        if (obs::tracer().enabled(obs::Category::kProtocol)) {
          obs::tracer().emit({link.simulator().now(),
                              static_cast<std::int64_t>(i),
                              obs::Category::kProtocol, 'i', "emulation.adopt",
                              0,
                              {{"from",
                                static_cast<std::uint64_t>(msg.sender)}}});
        }
        schedule_broadcast(i);
      }
    });
  }

  // Kickoff: every live node broadcasts its initial table, optionally
  // jittered.
  for (net::NodeId i = 0; i < n; ++i) {
    if (link.is_down(i)) continue;
    const double delay = jitter > 0 ? sim.rng().uniform(0.0, jitter) : 0.0;
    sim.schedule_in(delay, [schedule_broadcast, i]() { schedule_broadcast(i); });
  }

  sim.run();

  EmulationResult result;
  result.tables = std::move(state->tables);
  result.broadcasts = state->broadcasts;
  result.deliveries = state->deliveries;
  result.suppressed = state->suppressed;
  result.adoptions = state->adoptions;
  result.converged_at = sim.now();
  result.boundary_audit_passed = state->boundary_audit_passed;
  if (obs::tracer().enabled(obs::Category::kProtocol)) {
    obs::tracer().emit({sim.now(), -1, obs::Category::kProtocol, 'i',
                        "emulation.converged", 0,
                        {{"broadcasts", result.broadcasts},
                         {"deliveries", result.deliveries},
                         {"suppressed", result.suppressed},
                         {"adoptions", result.adoptions}}});
  }

  // Release the receiver closures (they hold the shared state).
  for (net::NodeId i = 0; i < n; ++i) link.set_receiver(i, nullptr);
  return result;
}

}  // namespace

RerouteStats reroute_entries_via(
    std::vector<RoutingTable>& tables, net::NodeId via,
    const net::LinkLayer& link, const CellMapper& mapper,
    const std::function<bool(net::NodeId)>& excluded) {
  RerouteStats stats;
  const auto& graph = link.graph();
  for (net::NodeId i = 0; i < tables.size(); ++i) {
    for (core::Direction d : core::kAllDirections) {
      if (tables[i][d] != via) continue;
      tables[i][d] = net::kNoNode;
      // The entry pointed toward the adjacent cell in direction d; promote
      // another neighbor already inside that cell, if any survives.
      const core::GridCoord target =
          core::GridTopology::step(mapper.cell_of(i), d);
      for (net::NodeId j : graph.neighbors(i)) {
        if (j == via || link.is_down(j) || excluded(j)) continue;
        if (mapper.cell_of(j) == target) {
          tables[i][d] = j;
          break;
        }
      }
      ++(tables[i][d] == net::kNoNode ? stats.unroutable : stats.rerouted);
    }
  }
  return stats;
}

std::size_t evacuate_entries_via(
    std::vector<RoutingTable>& tables, net::NodeId via,
    const net::LinkLayer& link, const CellMapper& mapper,
    const std::function<bool(net::NodeId)>& excluded) {
  std::size_t moved = 0;
  const auto& graph = link.graph();
  for (net::NodeId i = 0; i < tables.size(); ++i) {
    for (core::Direction d : core::kAllDirections) {
      if (tables[i][d] != via) continue;
      const core::GridCoord target =
          core::GridTopology::step(mapper.cell_of(i), d);
      for (net::NodeId j : graph.neighbors(i)) {
        if (j == via || link.is_down(j) || excluded(j)) continue;
        if (mapper.cell_of(j) == target) {
          tables[i][d] = j;  // alternative found; otherwise keep `via`
          ++moved;
          break;
        }
      }
    }
  }
  return moved;
}

std::vector<net::NodeId> follow_chain(const CellMapper& mapper,
                                      const std::vector<RoutingTable>& tables,
                                      net::NodeId start, core::Direction d) {
  const core::GridCoord home = mapper.cell_of(start);
  std::vector<net::NodeId> path{start};
  std::unordered_set<net::NodeId> visited{start};
  net::NodeId cur = start;
  while (true) {
    const net::NodeId next = tables[cur][d];
    if (next == net::kNoNode) return {};  // dead end: no route this way
    path.push_back(next);
    if (mapper.cell_of(next) != home) return path;  // crossed the boundary
    if (!visited.insert(next).second) return {};    // cycle guard
    cur = next;
  }
}

}  // namespace wsn::emulation
