#include "emulation/overlay_network.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "emulation/membership_view.h"
#include "net/reliable_link.h"
#include "obs/profiler.h"

namespace wsn::emulation {

OverlayNetwork::OverlayNetwork(net::LinkLayer& link, const CellMapper& mapper,
                               EmulationResult emulation, BindingResult binding,
                               core::LeaderPlacement placement)
    : link_(link),
      mapper_(mapper),
      emulation_(std::move(emulation)),
      binding_(std::move(binding)),
      grid_(mapper.grid_side()),
      groups_(grid_, placement),
      handlers_(grid_.node_count()) {
  const std::size_t n = link_.graph().node_count();

  // Intra-cell BFS trees rooted at each cell's bound leader: every member
  // learns its next hop toward the leader.
  toward_leader_.assign(n, net::kNoNode);
  suspected_.assign(n, false);
  epochs_.assign(grid_.node_count(), 0);
  for (const core::GridCoord& cell : grid_.all_coords()) {
    build_cell_tree(cell);
  }

  for (net::NodeId i = 0; i < n; ++i) {
    link_.set_receiver(i, [this, i](net::Packet&& pkt) {
      on_receive(i, std::move(pkt));
    });
  }
}

core::GridCoord OverlayNetwork::cell_view(net::NodeId id) const {
  return membership_ != nullptr ? membership_->cell_of(id)
                                : mapper_.cell_of(id);
}

bool OverlayNetwork::is_dst_leader(net::NodeId at,
                                   const core::GridCoord& dst) const {
  if (at != bound_node(dst)) return false;
  // A proxy leader serves a vacated cell from elsewhere, so the geometric
  // same-cell check only applies when no membership view is live.
  return membership_ != nullptr || mapper_.cell_of(at) == dst;
}

std::vector<net::NodeId> OverlayNetwork::members_view(
    const core::GridCoord& cell) const {
  if (membership_ != nullptr) return membership_->roster(cell);
  auto span = mapper_.members(cell);
  return {span.begin(), span.end()};
}

void OverlayNetwork::build_cell_tree(const core::GridCoord& cell) {
  const auto& graph = link_.graph();
  const std::size_t n = graph.node_count();
  const std::vector<net::NodeId> members = members_view(cell);
  for (net::NodeId m : members) toward_leader_[m] = net::kNoNode;
  const net::NodeId root = binding_.leader_of(cell, mapper_.grid_side());
  if (root == net::kNoNode || link_.is_down(root) || suspected_[root]) return;
  toward_leader_[root] = root;
  std::vector<bool> in_cell(n, false);
  for (net::NodeId m : members) {
    in_cell[m] = !link_.is_down(m) && !suspected_[m];
  }
  std::deque<net::NodeId> frontier{root};
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop_front();
    for (net::NodeId v : graph.neighbors(u)) {
      if (in_cell[v] && toward_leader_[v] == net::kNoNode) {
        toward_leader_[v] = u;
        frontier.push_back(v);
      }
    }
  }
}

void OverlayNetwork::attach_arq(net::ReliableChannel& arq) {
  arq_ = &arq;
  const std::size_t n = link_.graph().node_count();
  for (net::NodeId i = 0; i < n; ++i) {
    arq.set_receiver(i, [this, i](net::Packet&& pkt) {
      on_receive(i, std::move(pkt));
    });
  }
}

void OverlayNetwork::on_hop_give_up(net::NodeId from, net::NodeId to) {
  (void)from;
  if (suspected_[to]) return;
  suspected_[to] = true;
  const RerouteStats stats = reroute_entries_via(
      emulation_.tables, to, link_, mapper_,
      [this](net::NodeId n) { return suspected_[n]; });
  rerouted_entries_ += stats.rerouted;
  purged_entries_ += stats.unroutable;
  build_cell_tree(cell_view(to));
}

void OverlayNetwork::evacuate_relay(net::NodeId id) {
  evacuated_entries_ += evacuate_entries_via(
      emulation_.tables, id, link_, mapper_,
      [this](net::NodeId n) { return suspected_[n]; });
}

std::size_t OverlayNetwork::scramble_routes(net::NodeId id, sim::Rng& rng) {
  const auto& nbrs = link_.graph().neighbors(id);
  if (nbrs.empty()) return 0;
  std::size_t scrambled = 0;
  for (core::Direction d : core::kAllDirections) {
    emulation_.tables[id][d] = nbrs[rng.below(nbrs.size())];
    ++scrambled;
  }
  corrupted_entries_ += scrambled;
  return scrambled;
}

std::size_t OverlayNetwork::repair_routes(net::NodeId id) {
  const auto& graph = link_.graph();
  const core::GridCoord here = mapper_.cell_of(id);
  std::size_t repaired = 0;
  for (core::Direction d : core::kAllDirections) {
    const net::NodeId cur = emulation_.tables[id][d];
    if (cur == net::kNoNode) continue;  // cleared entries stay cleared
    const core::GridCoord target = core::GridTopology::step(here, d);
    if (grid_.contains(target)) {
      // Legitimate entries are radio neighbors that are either direct
      // gateways into the target cell or same-cell chain hops whose table
      // chain still leaves the cell (exactly what the emulation protocol
      // writes and follow_chain verifies). Liveness is deliberately not
      // checked: entries at down/suspected nodes belong to the give-up
      // machinery, so on uncorrupted tables this loop changes nothing.
      bool neighbor = false;
      for (net::NodeId v : graph.neighbors(id)) {
        if (v == cur) {
          neighbor = true;
          break;
        }
      }
      if (neighbor) {
        const core::GridCoord cur_cell = mapper_.cell_of(cur);
        if (cur_cell == target) continue;
        if (cur_cell == here &&
            !follow_chain(mapper_, emulation_.tables, id, d).empty()) {
          continue;
        }
      }
      // Corrupt entry: re-point at a live gateway when one exists (no
      // same-cell chaining, mirroring reroute_entries_via), else clear.
      net::NodeId fresh = net::kNoNode;
      for (net::NodeId v : graph.neighbors(id)) {
        if (mapper_.cell_of(v) == target && !link_.is_down(v) &&
            !suspected_[v]) {
          fresh = v;
          break;
        }
      }
      emulation_.tables[id][d] = fresh;
    } else {
      // No cell in this direction: no protocol execution ever writes an
      // entry here, so any value is corruption.
      emulation_.tables[id][d] = net::kNoNode;
    }
    ++repaired;
  }
  repaired_entries_ += repaired;
  return repaired;
}

void OverlayNetwork::rebind(const core::GridCoord& cell, net::NodeId leader) {
  rebind(cell, leader, epochs_[grid_.index_of(cell)] + 1);
}

void OverlayNetwork::rebind(const core::GridCoord& cell, net::NodeId leader,
                            std::uint64_t epoch) {
  obs::ProfSpan prof(obs::ProfCat::kBinding);
  const std::size_t idx =
      static_cast<std::size_t>(cell.row) * mapper_.grid_side() +
      static_cast<std::size_t>(cell.col);
  binding_.leaders[idx] = leader;
  epochs_[grid_.index_of(cell)] = epoch;
  ++rebinds_;
  build_cell_tree(cell);
  // Route-table repair on rebind: a rebind is the moment the cell's members
  // re-learn who anchors their routing, so scrub any corrupted inter-cell
  // entries they hold. No-op unless state corruption actually struck.
  for (net::NodeId m : members_view(cell)) repair_routes(m);
}

void OverlayNetwork::clear_suspected(net::NodeId id) {
  if (!suspected_[id]) return;
  suspected_[id] = false;
  // Restore routing through the proven-live node: fill any purged
  // (unroutable) inter-cell entries for which it is a valid gateway again,
  // then rebuild its cell's tree so it can relay intra-cell traffic.
  // Entries that were successfully rerouted elsewhere keep their working
  // alternative; only black holes are repaired.
  const auto& graph = link_.graph();
  const core::GridCoord cell = cell_view(id);
  for (net::NodeId i : graph.neighbors(id)) {
    for (core::Direction d : core::kAllDirections) {
      if (emulation_.tables[i][d] != net::kNoNode) continue;
      if (core::GridTopology::step(mapper_.cell_of(i), d) == cell) {
        emulation_.tables[i][d] = id;
        ++restored_entries_;
      }
    }
  }
  build_cell_tree(cell);
}

void OverlayNetwork::send_control(net::NodeId from, net::NodeId to,
                                  std::any payload, double size_units) {
  if (arq_ != nullptr) {
    arq_->send(from, to, std::move(payload), size_units, /*flow=*/0);
  } else {
    link_.unicast(from, to, std::move(payload), size_units, /*flow=*/0);
  }
}

void OverlayNetwork::send(const core::GridCoord& from, const core::GridCoord& to,
                          std::any payload, double size_units) {
  virtual_hops_ += manhattan(from, to);
  const net::NodeId origin = bound_node(from);
  if (origin == net::kNoNode) {
    ++failed_;
    return;
  }
  auto& tr = obs::tracer();
  std::uint64_t flow = 0;
  // Allocate a flow id if any layer below will emit with it: the overlay's
  // own events or the physical hops serving this send.
  if (tr.enabled(obs::Category::kOverlay) ||
      tr.enabled(obs::Category::kLink)) {
    flow = simulator().next_flow();
  }
  if (tr.enabled(obs::Category::kOverlay)) {
    tr.emit({simulator().now(), static_cast<std::int64_t>(origin),
             obs::Category::kOverlay, 'i',
             from == to ? obs::EventName("self_send") : obs::EventName("send"),
             flow,
             {{"src", static_cast<std::uint64_t>(grid_.index_of(from))},
              {"dst", static_cast<std::uint64_t>(grid_.index_of(to))},
              {"vhops", static_cast<std::uint64_t>(manhattan(from, to))},
              {"size", size_units}}});
  }
  std::any box = OverlayPacket{from, to, size_units, std::move(payload), flow};
  if (from == to) {
    // Self-delivery at the bound node: free, as on the virtual layer.
    simulator().post([this, origin, box = std::move(box)]() mutable {
      deliver_local(origin, std::move(std::any_cast<OverlayPacket&>(box)));
    });
    return;
  }
  forward(origin, std::move(box));
}

void OverlayNetwork::deliver_local(net::NodeId at, OverlayPacket&& pkt) {
  if (obs::tracer().enabled(obs::Category::kOverlay)) {
    obs::tracer().emit(
        {simulator().now(), static_cast<std::int64_t>(at),
         obs::Category::kOverlay, 'i', "deliver", pkt.flow,
         {{"src", static_cast<std::uint64_t>(grid_.index_of(pkt.src))},
          {"dst", static_cast<std::uint64_t>(grid_.index_of(pkt.dst))}}});
  }
  const std::size_t idx = grid_.index_of(pkt.dst);
  if (handlers_[idx]) {
    handlers_[idx](core::VirtualMessage{pkt.src, pkt.size_units,
                                        std::move(pkt.payload)});
  }
}

net::NodeId OverlayNetwork::route_next_hop(net::NodeId at,
                                           const core::GridCoord& dst_cell,
                                           net::NodeId from,
                                           RouteState* rs) const {
  // With a live membership view, a virtual node may be served by a proxy
  // leader physically living in a *different* cell (a vacated cell adopted
  // by a neighbor). Route toward the cell the serving node believes it is
  // in — its own cell's tree climbs to it — instead of the empty geometric
  // destination.
  core::GridCoord target = dst_cell;
  if (membership_ != nullptr) {
    const net::NodeId anchor = bound_node(dst_cell);
    if (anchor != net::kNoNode) target = membership_->cell_of(anchor);
  }
  const core::GridCoord here = cell_view(at);
  if (here == target) {
    // Climb the intra-cell tree toward the bound leader.
    const net::NodeId up = toward_leader_[at];
    return up == at ? net::kNoNode : up;  // at the leader already: no hop
  }
  // Dimension-order cell routing: fix the column first, then the row,
  // mirroring GridTopology::route so virtual and physical paths cross the
  // same cells.
  const core::Direction pref =
      here.col != target.col
          ? (here.col < target.col ? core::Direction::kEast
                                   : core::Direction::kWest)
          : (here.row < target.row ? core::Direction::kSouth
                                   : core::Direction::kNorth);
  if (membership_ == nullptr || rs == nullptr) {
    return emulation_.tables[at][pref];
  }
  // Membership mode: greedy dimension-order with a perimeter fallback.
  // A vacated cell is a hole in the grid that greedy routing cannot see
  // past — dimension-order walks frames straight into pockets it can
  // never leave (a cell whose only live exit is the way the frame came).
  // When the greedy port is unusable the frame switches to a right-hand
  // wall walk around the hole, carried in its RouteState, and resumes
  // greedy the moment it stands strictly closer to the target than where
  // the walk began (the face-routing exit rule). The walk visits each
  // boundary cell a bounded number of times, and every greedy resumption
  // strictly shrinks the entry distance, so delivery terminates whenever
  // the target's component is reachable at all; `ttl` bounds the rest.
  const auto usable = [&](core::Direction d) -> net::NodeId {
    const net::NodeId hop = emulation_.tables[at][d];
    if (hop == net::kNoNode || suspected_[hop]) return net::kNoNode;
    const core::GridCoord next = core::GridTopology::step(here, d);
    if (!(next == target)) {
      // A cell served by an out-of-cell proxy has nothing live to relay
      // through: never use it for transit (this also covers cells `at`
      // itself proxies).
      const net::NodeId a = bound_node(next);
      if (a != net::kNoNode && !(membership_->cell_of(a) == next)) {
        return net::kNoNode;
      }
    }
    return hop;
  };
  // Incoming geometry. A same-cell sender means this node is a chain hop
  // (the emulation's tables may cross a boundary through several same-cell
  // relays) and must keep the frame's direction; an adjacent-cell sender
  // bans the U-turn back into its cell, except as the perimeter walk's
  // last resort — backtracking out of a true cul-de-sac.
  bool has_banned = false;
  core::Direction banned = core::Direction::kNorth;
  bool chain_hop = false;
  if (from != net::kNoNode) {
    const core::GridCoord from_cell = cell_view(from);
    if (from_cell == here) {
      chain_hop = true;
    } else {
      for (const core::Direction dd : core::kAllDirections) {
        if (core::GridTopology::step(here, dd) == from_cell) {
          has_banned = true;
          banned = dd;
          break;
        }
      }
    }
  }
  const bool perimeter = rs->detour != 0;
  const core::Direction travel =
      perimeter ? static_cast<core::Direction>(rs->detour - 1) : pref;
  if (chain_hop) {
    const net::NodeId hop = usable(travel);
    if (hop != net::kNoNode) return hop;
    // The chain broke beneath us (its gateway died): reselect from here.
  }
  const std::uint32_t dist = core::manhattan(here, target);
  if (!(has_banned && pref == banned)) {
    const net::NodeId hop = usable(pref);
    if (hop != net::kNoNode && (!perimeter || dist < rs->entry_dist)) {
      rs->detour = 0;
      return hop;
    }
  }
  if (!perimeter) {
    rs->entry_dist =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(dist, 255));
    rs->ttl = static_cast<std::uint8_t>(
        std::min<std::size_t>(4 * grid_.side() + 8, 255));
  } else if (rs->ttl == 0) {
    return net::kNoNode;  // walked the budget out: target unreachable
  } else {
    --rs->ttl;
  }
  // Right-hand wall walk: try the direction right of travel first, then
  // ahead, then left, then (only if everything else is banned or dead) the
  // U-turn. Direction enum order is clockwise, so right-of is +1 mod 4.
  const auto right_of = [](core::Direction d) {
    return static_cast<core::Direction>(
        (static_cast<std::uint8_t>(d) + 1) % 4);
  };
  const core::Direction order[4] = {right_of(travel), travel,
                                    core::opposite(right_of(travel)),
                                    core::opposite(travel)};
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::Direction d : order) {
      const bool is_banned = has_banned && d == banned;
      if ((pass == 0) == is_banned) continue;
      const net::NodeId hop = usable(d);
      if (hop != net::kNoNode) {
        rs->detour = static_cast<std::uint8_t>(d) + 1;
        return hop;
      }
    }
  }
  return net::kNoNode;
}

void OverlayNetwork::forward(net::NodeId at, std::any box,
                             net::NodeId from) {
  OverlayPacket& pkt = std::any_cast<OverlayPacket&>(box);
  const net::NodeId nh = route_next_hop(at, pkt.dst, from, &pkt.route);
  if (nh == net::kNoNode) {
    // Either routing is impossible or `at` is already the destination
    // leader (self-send handled earlier, so reaching here with no hop and
    // the right cell means delivery).
    if (is_dst_leader(at, pkt.dst)) {
      deliver_local(at, std::move(pkt));
    } else {
      ++failed_;
      // Purged tables (suspected/crashed gateway) can leave no route; the
      // drop event keeps the flow explicable offline.
      if (obs::tracer().enabled(obs::Category::kOverlay)) {
        obs::tracer().emit(
            {simulator().now(), static_cast<std::int64_t>(at),
             obs::Category::kOverlay, 'i', "drop", pkt.flow,
             {{"dst", static_cast<std::uint64_t>(grid_.index_of(pkt.dst))},
              {"why", obs::AttrCode("no_route")}}});
      }
    }
    return;
  }
  ++physical_hops_;
  const double size_units = pkt.size_units;
  const std::uint64_t flow = pkt.flow;
  if (arq_ != nullptr) {
    arq_->send(at, nh, std::move(box), size_units, flow);
  } else {
    link_.unicast(at, nh, std::move(box), size_units, flow);
  }
}

void OverlayNetwork::on_receive(net::NodeId at, net::Packet&& raw) {
  auto* pkt = std::any_cast<OverlayPacket>(&raw.payload);
  if (pkt == nullptr) {
    // Not the overlay's wire format: control-plane traffic (failure
    // detection leases, elections) multiplexed onto the same transport.
    if (control_receiver_) control_receiver_(at, std::move(raw));
    return;
  }
  if (is_dst_leader(at, pkt->dst)) {
    deliver_local(at, std::move(*pkt));
    return;
  }
  forward(at, std::move(raw.payload), raw.sender);
}

}  // namespace wsn::emulation
