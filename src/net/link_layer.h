// Event-driven physical network: single-hop broadcast/unicast over the
// unit-disk connectivity graph, with energy charged per the uniform cost
// model and delivery latency derived from the radio bandwidth.
//
// This is the substrate the Section 5 runtime protocols execute on. A
// broadcast is one transmission heard by every one-hop neighbor: the sender
// pays tx energy once per data unit and every neighbor in range pays rx
// energy, matching the short-range omnidirectional antenna model.
// Every transmission lands one airtime (size / bandwidth) after it is sent,
// even back to back from one radio; net::ReliableChannel's duplicate
// suppression relies on that fixed delay.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/energy.h"
#include "net/network_graph.h"
#include "net/radio.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wsn::net {

/// A message in flight. `payload` is protocol-defined; `size_units` drives
/// both latency and energy.
struct Packet {
  NodeId sender = kNoNode;
  double size_units = 1.0;
  std::any payload;
};

/// Physical network façade: owns delivery scheduling and energy accounting,
/// borrows the simulator.
class LinkLayer {
 public:
  /// Owns the packet it is handed: a forwarder moves it on.
  using Receiver = std::function<void(Packet&&)>;

  LinkLayer(sim::Simulator& sim, const NetworkGraph& graph, RadioModel radio,
            CpuModel cpu, EnergyLedger& ledger)
      : sim_(sim), graph_(graph), radio_(radio), cpu_(cpu), ledger_(ledger),
        receivers_(graph.node_count()), down_(graph.node_count(), false) {}

  sim::Simulator& simulator() { return sim_; }
  const NetworkGraph& graph() const { return graph_; }
  const RadioModel& radio() const { return radio_; }
  EnergyLedger& ledger() { return ledger_; }
  sim::CounterSet& counters() { return counters_; }

  /// Installs the receive handler for `node`. Packets delivered to a node
  /// with no handler are counted and dropped.
  void set_receiver(NodeId node, Receiver r) {
    receivers_[node] = std::move(r);
  }

  /// Per-packet loss probability applied independently per receiver.
  void set_loss_probability(double p) { loss_probability_ = p; }
  double loss_probability() const { return loss_probability_; }

  /// Marks a node as failed (crashed / removed): it neither transmits nor
  /// receives. Section 5.1 motivates periodic protocol re-execution with
  /// exactly such failures.
  void set_down(NodeId node, bool down) { down_[node] = down; }
  bool is_down(NodeId node) const { return down_[node]; }
  std::size_t down_count() const {
    std::size_t n = 0;
    for (bool d : down_) n += d ? 1 : 0;
    return n;
  }

  /// One local broadcast: sender pays tx once; each live neighbor pays rx
  /// and receives the packet after the transmission latency.
  ///
  /// `flow` is an optional trace correlation id (obs::TraceEvent::flow):
  /// overlay/protocol callers thread the originating message's id through
  /// so a trace reconstructs which physical transmissions served which
  /// logical send. Pass 0 for uncorrelated traffic.
  void broadcast(NodeId from, std::any payload, double size_units = 1.0,
                 std::uint64_t flow = 0) {
    obs::ProfSpan prof(obs::ProfCat::kLinkTx);
    if (down_[from] || ledger_.depleted(from)) {
      counters_.add(Counter::kTxDead);
      return;
    }
    ledger_.charge(from, EnergyUse::kTx, radio_.tx_energy_per_unit * size_units);
    counters_.add(Counter::kBroadcast);
    const sim::Time arrive = sim_.now() + radio_.tx_latency(size_units);
    if (obs::tracer().enabled(obs::Category::kLink)) {
      obs::tracer().emit({sim_.now(), static_cast<std::int64_t>(from),
                          obs::Category::kLink, 'i', "broadcast", flow,
                          {{"size", size_units}, {"arrive", arrive}}});
    }
    for (NodeId nbr : graph_.neighbors(from)) {
      deliver_at(arrive, from, nbr, payload, size_units, flow);
    }
  }

  /// One-hop unicast; `to` must be a one-hop neighbor of `from`. With a
  /// short-range omnidirectional antenna the energy cost equals broadcast
  /// (neighbors overhear but discard; we charge rx only at the addressee,
  /// the standard idealization in the algorithm-design literature the paper
  /// builds on).
  void unicast(NodeId from, NodeId to, std::any payload,
               double size_units = 1.0, std::uint64_t flow = 0) {
    obs::ProfSpan prof(obs::ProfCat::kLinkTx);
    if (down_[from] || ledger_.depleted(from)) {
      counters_.add(Counter::kTxDead);
      return;
    }
    ledger_.charge(from, EnergyUse::kTx, radio_.tx_energy_per_unit * size_units);
    counters_.add(Counter::kUnicast);
    const sim::Time arrive = sim_.now() + radio_.tx_latency(size_units);
    if (obs::tracer().enabled(obs::Category::kLink)) {
      obs::tracer().emit({sim_.now(), static_cast<std::int64_t>(from),
                          obs::Category::kLink, 'i', "unicast", flow,
                          {{"to", static_cast<std::uint64_t>(to)},
                           {"size", size_units},
                           {"arrive", arrive}}});
    }
    deliver_at(arrive, from, to, std::move(payload), size_units, flow);
  }

  /// Charges compute energy and returns the latency of `ops` computations;
  /// callers schedule follow-up work after that latency.
  sim::Time compute(NodeId node, double ops) {
    ledger_.charge(node, EnergyUse::kCompute, cpu_.energy_per_op * ops);
    counters_.add(Counter::kCompute);
    return cpu_.compute_latency(ops);
  }

  /// Registers this layer's instruments (counters, shared ledger, down-node
  /// gauge) under `prefix` in the unified registry.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "link") const {
    registry.add_counters(prefix + ".counters", &counters_);
    registry.add_ledger(prefix + ".energy", &ledger_);
    registry.add_gauge(prefix + ".down_nodes",
                       [this] { return static_cast<double>(down_count()); });
  }

 private:
  enum class Counter : std::uint8_t {
    kBroadcast, kCompute, kDelivered, kLost, kNoReceiver, kRxDead, kTxDead,
    kUnicast, kCount
  };
  static constexpr std::string_view kCounterNames[] = {
      "link.broadcast", "link.compute", "link.delivered", "link.lost",
      "link.no_receiver", "link.rx_dead", "link.tx_dead", "link.unicast"};
  static_assert(sim::counter_table_ok<Counter>(kCounterNames));

  /// Emits a flow-correlated kLink "drop" event so the analyzer can explain
  /// transmissions that never produce a "deliver" (lost in the air, or the
  /// receiver was dead on arrival).
  void trace_drop(NodeId from, NodeId to, std::uint64_t flow,
                  obs::AttrCode why) {
    if (obs::tracer().enabled(obs::Category::kLink)) {
      obs::tracer().emit({sim_.now(), static_cast<std::int64_t>(to),
                          obs::Category::kLink, 'i', "drop", flow,
                          {{"from", static_cast<std::uint64_t>(from)},
                           {"why", why}}});
    }
  }

  void deliver_at(sim::Time at, NodeId from, NodeId to, std::any payload,
                  double size_units, std::uint64_t flow) {
    if (loss_probability_ > 0 && sim_.rng().uniform() < loss_probability_) {
      counters_.add(Counter::kLost);
      trace_drop(from, to, flow, "loss");
      return;
    }
    sim_.schedule_at(at, [this, from, to, payload = std::move(payload),
                          size_units, flow]() mutable {
      obs::ProfSpan prof(obs::ProfCat::kLinkRx);
      if (down_[to] || ledger_.depleted(to)) {
        counters_.add(Counter::kRxDead);
        trace_drop(from, to, flow, "dead");
        return;
      }
      ledger_.charge(to, EnergyUse::kRx, radio_.rx_energy_per_unit * size_units);
      counters_.add(Counter::kDelivered);
      if (obs::tracer().enabled(obs::Category::kLink)) {
        obs::tracer().emit({sim_.now(), static_cast<std::int64_t>(to),
                            obs::Category::kLink, 'i', "deliver", flow,
                            {{"from", static_cast<std::uint64_t>(from)},
                             {"size", size_units}}});
      }
      if (receivers_[to]) {
        receivers_[to](Packet{from, size_units, std::move(payload)});
      } else {
        counters_.add(Counter::kNoReceiver);
      }
    });
  }

  sim::Simulator& sim_;
  const NetworkGraph& graph_;
  RadioModel radio_;
  CpuModel cpu_;
  EnergyLedger& ledger_;
  std::vector<Receiver> receivers_;
  std::vector<bool> down_;
  sim::CounterSet counters_{kCounterNames};
  double loss_probability_ = 0.0;
};

}  // namespace wsn::net
