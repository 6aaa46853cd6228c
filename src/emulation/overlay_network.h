// OverlayNetwork: the runtime system made executable.
//
// Implements core::MessageFabric on top of the physical network: a message
// from virtual node (r,c) to virtual node (r',c') leaves the physical node
// bound to cell (r,c), crosses cells in dimension-order using the routing
// tables built by the Section 5.1 emulation protocol (hop-by-hop, each relay
// consulting only its own table), and finally climbs the intra-cell tree to
// the bound leader of the destination cell.
//
// Every physical hop is a real LinkLayer unicast: energy lands in the
// physical ledger and latency accumulates per hop, so measurements taken
// here are the "actual performance on the underlying network" that the
// paper's methodology promises will track the virtual-architecture analysis.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/fabric.h"
#include "emulation/cell_mapper.h"
#include "emulation/emulation_protocol.h"
#include "emulation/leader_binding.h"
#include "net/link_layer.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace wsn::net {
class ReliableChannel;
}

namespace wsn::emulation {

class MembershipView;

class OverlayNetwork final : public core::MessageFabric {
 public:
  /// Binds the overlay to a completed emulation + binding. The grid side of
  /// `mapper` must match the virtual topology used by programs. The overlay
  /// owns the LinkLayer receivers of every physical node.
  OverlayNetwork(net::LinkLayer& link, const CellMapper& mapper,
                 EmulationResult emulation, BindingResult binding,
                 core::LeaderPlacement placement = core::LeaderPlacement::kNorthWest);

  sim::Simulator& simulator() override { return link_.simulator(); }
  const core::GridTopology& grid() const override { return grid_; }
  const core::GroupHierarchy& groups() const override { return groups_; }

  void set_receiver(const core::GridCoord& c, Handler h) override {
    handlers_[grid_.index_of(c)] = std::move(h);
  }

  void send(const core::GridCoord& from, const core::GridCoord& to,
            std::any payload, double size_units) override;

  /// Charges `ops` to the physical node bound to `c`.
  sim::Time compute(const core::GridCoord& c, double ops) override {
    return link_.compute(bound_node(c), ops);
  }

  /// Physical node executing virtual node `c`.
  net::NodeId bound_node(const core::GridCoord& c) const {
    return binding_.leader_of(c, mapper_.grid_side());
  }

  net::LinkLayer& link() { return link_; }
  const CellMapper& mapper() const { return mapper_; }
  /// The attached ARQ channel, or nullptr before attach_arq.
  net::ReliableChannel* arq() { return arq_; }

  /// Attaches (or detaches, with nullptr) a live membership view: cell
  /// trees, routing anchors, and delivery checks consult the view's cell
  /// beliefs/rosters instead of the immutable geometric CellMapper, so
  /// adopted orphans relay and receive for their adopter cell. Without a
  /// view (the default) behavior is byte-identical to the geometric
  /// mapping. Owned by the FailureDetector when its membership mode is on.
  void set_membership_view(const MembershipView* view) {
    membership_ = view;
  }
  const MembershipView* membership_view() const { return membership_; }

  /// Rebuilds `cell`'s intra-cell tree without changing its binding — the
  /// adoption path uses this when a cell's member set changed (an orphan
  /// joined) but its leader did not.
  void refresh_cell_tree(const core::GridCoord& cell) {
    build_cell_tree(cell);
  }

  /// Routes every subsequent physical hop through `arq` (per-hop ack +
  /// retransmit) instead of raw unicast. The channel must wrap this
  /// overlay's LinkLayer; calling this hands the channel's receivers to the
  /// overlay (the channel already owns the raw link receivers). While
  /// attached, no other component may inject raw (non-ARQ) link traffic.
  void attach_arq(net::ReliableChannel& arq);

  /// Whether a node has been marked unresponsive by on_hop_give_up.
  bool is_suspected(net::NodeId id) const { return suspected_[id]; }

  /// Clears a suspicion (the node proved itself alive — e.g. a heartbeat or
  /// lease arrived from it) and restores routing through it: inter-cell
  /// entries are rebuilt where the node is again the best gateway and its
  /// cell's intra-cell tree is recomputed. No-op if not suspected.
  void clear_suspected(net::NodeId id);

  /// Per-frame routing state, carried inside each routed frame (membership
  /// mode only; stays all-zero otherwise). Greedy dimension-order routing
  /// needs no state, but escaping a pocket of dead cells does: `detour` is
  /// 0 while greedy and Direction+1 of the travel direction while walking
  /// the perimeter of a hole, `entry_dist` is the Manhattan distance to
  /// the target where the walk began (the face-routing exit threshold),
  /// and `ttl` bounds the walk against unreachable targets.
  struct RouteState {
    std::uint8_t detour = 0;
    std::uint8_t entry_dist = 0;
    std::uint8_t ttl = 0;
  };

  /// Next physical hop from `at` toward the bound leader of `dst_cell`, or
  /// kNoNode when no route exists (also when `at` IS that leader). Data and
  /// control-plane protocols (failure detection leases) ride the same
  /// hop-by-hop tables instead of consulting global state. In membership
  /// mode, given the frame's routing state `rs` (updated in place), it
  /// routes greedily (dimension-order) and falls back to a right-hand
  /// perimeter walk around dead cells. `from` is the physical sender the
  /// frame arrived from (kNoNode at the source); relays never forward back
  /// into the cell it came from, which keeps the detours loop-free.
  net::NodeId route_next_hop(net::NodeId at, const core::GridCoord& dst_cell,
                             net::NodeId from = net::kNoNode,
                             RouteState* rs = nullptr) const;

  /// Control-plane escape hatch: sends `payload` one physical hop
  /// `from` -> `to` through the same transport the overlay's data takes
  /// (the ARQ channel when attached, the raw link otherwise), charging
  /// energy normally. On arrival the packet is handed to the control
  /// receiver instead of the overlay forwarding logic. Control traffic is
  /// uncorrelated (flow 0): it serves no single logical message.
  void send_control(net::NodeId from, net::NodeId to, std::any payload,
                    double size_units);

  /// Installs the handler for packets sent via send_control. Any payload
  /// that is not the overlay's own wire format is dispatched here, so one
  /// protocol at a time may own the control channel.
  void set_control_receiver(
      std::function<void(net::NodeId at, net::Packet&&)> handler) {
    control_receiver_ = std::move(handler);
  }

  /// Binding generation of `cell`: starts at 0 and bumps on every rebind.
  /// Collectives stamp contributions with it (core::MessageFabric docs).
  std::uint64_t binding_epoch(const core::GridCoord& c) const override {
    return epochs_[grid_.index_of(c)];
  }

  /// Liveness suspicion hook, intended for ReliableChannel::on_give_up:
  /// marks `to` suspected, re-points every inter-cell table entry routing
  /// via `to` at an alternate gateway where one exists (clearing the rest),
  /// and rebuilds the intra-cell tree of `to`'s cell around it. Subsequent
  /// sends route around the suspect; sends with no alternate route fail
  /// fast instead of black-holing.
  void on_hop_give_up(net::NodeId from, net::NodeId to);

  /// Relay-load shedding for a node that is still alive but running out of
  /// battery (a leader that just handed off): inter-cell entries routing
  /// via `id` move to an alternate gateway where one exists, but entries
  /// with no alternative keep `id` — it can still carry them, so nothing
  /// black-holes. When the node's battery finally dies, only the
  /// unavoidable entries break and the ARQ give-up path repairs those.
  void evacuate_relay(net::NodeId id);

  /// State-corruption hook (fault kind state_corruption, target "routes"):
  /// re-points every routing-table entry of `id` at a random radio neighbor
  /// drawn from `rng`, regardless of direction — the entries stay physical
  /// links (frames still transmit), but traffic through `id` misroutes
  /// until repair_routes undoes the damage. Returns entries scrambled.
  std::size_t scramble_routes(net::NodeId id, sim::Rng& rng);

  /// Local route-table validation for node `id`, the self-stabilization
  /// counterpart of scramble_routes: an entry is legitimate only if it
  /// points at a radio neighbor that is either a gateway in the direction's
  /// adjacent cell or a same-cell chain hop whose table chain still reaches
  /// that cell (what the Section 5.1 protocol builds). Anything else — a
  /// non-neighbor, a wrong-cell hop, a looping chain, an entry for an
  /// off-grid direction — is replaced with a live gateway neighbor when one
  /// exists and cleared otherwise. Entries merely pointing at down or
  /// suspected nodes are left alone (the give-up/suspicion machinery owns
  /// those), so this is a no-op on every uncorrupted table. Runs on every
  /// rebind for the rebinding cell's members and on every audit round.
  /// Returns the number of entries repaired.
  std::size_t repair_routes(net::NodeId id);

  /// Re-points virtual node `cell` at a new physical leader (failover after
  /// the bound node crashed) and rebuilds the cell's intra-cell tree toward
  /// it. Handlers installed via set_receiver are keyed by virtual coord and
  /// survive the rebind unchanged. Bumps the cell's binding epoch by one;
  /// the overload takes the epoch the distributed election agreed on.
  void rebind(const core::GridCoord& cell, net::NodeId leader);
  void rebind(const core::GridCoord& cell, net::NodeId leader,
              std::uint64_t epoch);

  /// Total physical hops taken by overlay messages.
  std::uint64_t physical_hops() const { return physical_hops_; }
  /// Total virtual (manhattan) hops the same messages would take on the
  /// virtual grid; physical/virtual is the emulation stretch.
  std::uint64_t virtual_hops() const { return virtual_hops_; }
  /// Messages that could not be routed (missing table entry / no leader).
  std::uint64_t failed_sends() const { return failed_; }

  /// Registers the overlay's instruments plus its LinkLayer's under
  /// `prefix` / `prefix`.link in the unified registry.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "overlay") const {
    registry.add_gauge(prefix + ".physical_hops", [this] {
      return static_cast<double>(physical_hops_);
    });
    registry.add_gauge(prefix + ".virtual_hops", [this] {
      return static_cast<double>(virtual_hops_);
    });
    registry.add_gauge(prefix + ".failed_sends",
                       [this] { return static_cast<double>(failed_); });
    registry.add_gauge(prefix + ".suspected", [this] {
      std::size_t n = 0;
      for (bool s : suspected_) n += s ? 1 : 0;
      return static_cast<double>(n);
    });
    registry.add_gauge(prefix + ".purged_entries", [this] {
      return static_cast<double>(purged_entries_);
    });
    registry.add_gauge(prefix + ".rerouted_entries", [this] {
      return static_cast<double>(rerouted_entries_);
    });
    registry.add_gauge(prefix + ".restored_entries", [this] {
      return static_cast<double>(restored_entries_);
    });
    registry.add_gauge(prefix + ".evacuated_entries", [this] {
      return static_cast<double>(evacuated_entries_);
    });
    registry.add_gauge(prefix + ".corrupted_entries", [this] {
      return static_cast<double>(corrupted_entries_);
    });
    registry.add_gauge(prefix + ".repaired_entries", [this] {
      return static_cast<double>(repaired_entries_);
    });
    registry.add_gauge(prefix + ".rebinds",
                       [this] { return static_cast<double>(rebinds_); });
    link_.register_metrics(registry, prefix + ".link");
  }

 private:
  struct OverlayPacket {
    core::GridCoord src;
    core::GridCoord dst;
    double size_units;
    std::any payload;
    /// Trace correlation id of the originating virtual send; carried into
    /// every physical LinkLayer hop beneath it (Section 5 emulation
    /// boundary provenance). 0 when tracing was off at send time.
    std::uint64_t flow = 0;
    /// Detour-routing state (membership mode; all-zero otherwise).
    RouteState route{};
  };

  void on_receive(net::NodeId at, net::Packet&& raw);
  /// Moves `box`, the std::any holding an OverlayPacket, one physical hop
  /// on from `at` (or delivers it there); the packet's routing state is
  /// updated in place.
  void forward(net::NodeId at, std::any box, net::NodeId from = net::kNoNode);
  void deliver_local(net::NodeId at, OverlayPacket&& pkt);

  /// (Re)builds the intra-cell BFS tree of `cell` toward its bound leader,
  /// routing around down, depleted, and suspected nodes.
  void build_cell_tree(const core::GridCoord& cell);

  /// Whether `at` is the node currently serving virtual node `dst`.
  bool is_dst_leader(net::NodeId at, const core::GridCoord& dst) const;

  /// Node's cell for routing purposes: the live belief when a membership
  /// view is attached, the geometric cell otherwise.
  core::GridCoord cell_view(net::NodeId id) const;
  /// `cell`'s members for tree building: the live roster when a membership
  /// view is attached, the geometric member list otherwise.
  std::vector<net::NodeId> members_view(const core::GridCoord& cell) const;

  net::LinkLayer& link_;
  const CellMapper& mapper_;
  EmulationResult emulation_;
  BindingResult binding_;
  core::GridTopology grid_;
  core::GroupHierarchy groups_;
  std::vector<Handler> handlers_;
  /// Per-node next hop toward the bound leader of its own cell (BFS tree,
  /// standing in for intra-cell routing on local neighborhood knowledge).
  std::vector<net::NodeId> toward_leader_;
  /// Nodes an ARQ give-up has flagged unresponsive; routing avoids them
  /// until a repair clears the flag (fresh construction starts clean).
  std::vector<bool> suspected_;
  /// Binding generation per virtual cell; bumped on every rebind.
  std::vector<std::uint64_t> epochs_;
  std::function<void(net::NodeId, net::Packet&&)> control_receiver_;
  net::ReliableChannel* arq_ = nullptr;
  const MembershipView* membership_ = nullptr;
  std::uint64_t physical_hops_ = 0;
  std::uint64_t virtual_hops_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t purged_entries_ = 0;
  std::uint64_t rerouted_entries_ = 0;
  std::uint64_t restored_entries_ = 0;
  std::uint64_t evacuated_entries_ = 0;
  std::uint64_t corrupted_entries_ = 0;
  std::uint64_t repaired_entries_ = 0;
  std::uint64_t rebinds_ = 0;
};

}  // namespace wsn::emulation
