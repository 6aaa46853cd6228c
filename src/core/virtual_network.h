// The executable face of the virtual architecture: an event-driven network
// of virtual grid nodes exchanging messages whose latency and energy follow
// the uniform cost model with shortest-path (dimension-order) routing.
//
// Programs written against this class are the "programs for the virtual
// architecture" of Figure 1: they never see the physical deployment. The
// same programs can instead be bound to a physical network through the
// Section 5 runtime (emulation::OverlayNetwork), which is how the library
// checks that virtual-layer analysis predicts physical-layer behaviour.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/fabric.h"
#include "core/grid_topology.h"
#include "core/groups.h"
#include "net/energy.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wsn::core {

/// How the virtual layer treats concurrent transmissions.
enum class Congestion : std::uint8_t {
  /// The paper's cost model: links are contention-free; a message's latency
  /// is exactly hops x units / B regardless of other traffic.
  kNone,
  /// Store-and-forward with per-node transmitter serialization: a node can
  /// push only one packet onto the air at a time, so messages queue at busy
  /// relays. Exposes funnel effects (e.g. a centralized sink) the uniform
  /// model hides.
  kNodeSerialized,
};

/// Event-driven virtual grid network (the designer's cost model made
/// executable).
class VirtualNetwork final : public MessageFabric {
 public:
  VirtualNetwork(sim::Simulator& sim, GridTopology grid, CostModel cost,
                 LeaderPlacement placement = LeaderPlacement::kNorthWest,
                 Congestion congestion = Congestion::kNone)
      : sim_(sim),
        grid_(grid),
        cost_(cost),
        groups_(grid_, placement),
        congestion_(congestion),
        ledger_(grid.node_count()),
        receivers_(grid.node_count()),
        down_(grid.node_count(), false),
        tx_busy_until_(grid.node_count(), 0.0) {
    cost_.validate();
  }

  sim::Simulator& simulator() override { return sim_; }
  const GridTopology& grid() const override { return grid_; }
  const GroupHierarchy& groups() const override { return groups_; }
  const CostModel& cost() const { return cost_; }
  net::EnergyLedger& ledger() { return ledger_; }
  const net::EnergyLedger& ledger() const { return ledger_; }
  sim::CounterSet& counters() { return counters_; }

  void set_receiver(const GridCoord& c, Handler h) override {
    receivers_[grid_.index_of(c)] = std::move(h);
  }

  /// Marks a virtual node's process as crashed: its sends are suppressed
  /// (counted as `vnet.tx_dead`) and deliveries to it are dropped at the
  /// last instant (`vnet.rx_dead`, with a flow-correlated "drop" trace
  /// event). The ideal relay fabric keeps forwarding — this models process
  /// failure, the virtual-layer counterpart of LinkLayer::set_down, so
  /// fault campaigns (sim/fault_plan.h) apply to both fabrics.
  void set_down(const GridCoord& c, bool down) {
    down_[grid_.index_of(c)] = down;
  }
  bool is_down(const GridCoord& c) const { return down_[grid_.index_of(c)]; }

  /// Sends `payload` from `from` to `to`. Charges the sender tx energy, each
  /// dimension-order relay rx+tx, and the destination rx; delivery occurs
  /// after hops * (units/B) of latency. A self-send is free and delivered at
  /// the current instant (the quad-tree mapping exploits this: one of the
  /// four child messages is "from the node to itself", Section 4.3).
  void send(const GridCoord& from, const GridCoord& to, std::any payload,
            double size_units = 1.0) override;

  /// Charges `ops` computations at `c` per the uniform cost model and
  /// returns their latency.
  sim::Time compute(const GridCoord& c, double ops) override {
    ledger_.charge(static_cast<net::NodeId>(grid_.index_of(c)),
                   net::EnergyUse::kCompute, cost_.compute_energy(ops));
    counters_.add(Counter::kCompute);
    return cost_.compute_latency(ops);
  }

  /// Sum of hop counts of all sends so far; with unit message size this
  /// equals half the total communication energy under the uniform model.
  std::uint64_t total_hops() const { return total_hops_; }

  Congestion congestion() const { return congestion_; }

  /// Registers this network's instruments (counters, ledger, hop gauge)
  /// under `prefix` in the unified registry.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "vnet") const {
    registry.add_counters(prefix + ".counters", &counters_);
    registry.add_ledger(prefix + ".energy", &ledger_);
    registry.add_gauge(prefix + ".total_hops", [this] {
      return static_cast<double>(total_hops_);
    });
  }

 private:
  enum class Counter : std::uint8_t {
    kCompute, kDelivered, kNoReceiver, kQueued, kRxDead, kSelfSend, kSend,
    kTxDead, kCount
  };
  static constexpr std::string_view kCounterNames[] = {
      "vnet.compute", "vnet.delivered", "vnet.no_receiver", "vnet.queued",
      "vnet.rx_dead", "vnet.self_send", "vnet.send", "vnet.tx_dead"};
  static_assert(sim::counter_table_ok<Counter>(kCounterNames));

  /// One store-and-forward hop under kNodeSerialized: the packet waits for
  /// the relay's transmitter, then occupies it for one hop latency.
  /// `flow` is the trace correlation id of the originating send (0 when
  /// tracing is disabled).
  void forward_serialized(std::vector<GridCoord> path, std::size_t hop,
                          std::any payload, double size_units,
                          std::uint64_t flow);
  /// Hands `payload` to the receiver at cell index `to`; `from` is the
  /// sender's cell index.
  void deliver(std::size_t from, std::size_t to, std::any payload,
               double size_units, std::uint64_t flow);

  sim::Simulator& sim_;
  GridTopology grid_;
  CostModel cost_;
  GroupHierarchy groups_;
  Congestion congestion_;
  net::EnergyLedger ledger_;
  std::vector<Handler> receivers_;
  std::vector<bool> down_;
  sim::CounterSet counters_{kCounterNames};
  std::vector<sim::Time> tx_busy_until_;
  std::uint64_t total_hops_ = 0;
};

}  // namespace wsn::core
