// Energy exhaustion as a first-class fault source.
//
// The paper's uniform cost model exists so designers can reason about
// energy balance and network lifetime, but the robustness stack only ever
// killed nodes when a FaultPlan said so: LinkLayer silently mutes depleted
// senders, and nothing upstream noticed the death. The DepletionMonitor
// closes that gap deterministically: it hooks the EnergyLedger's
// exactly-once budget-crossing callback and, synchronously at the crossing
// tick (inside the very charge that crossed),
//
//   * emits one Category::kReliability "energy.depleted" TraceEvent
//     carrying the node's budget and cumulative spend,
//   * bumps the "energy.depleted" counter, and
//   * calls LinkLayer::set_down(node, true),
//
// so a depletion death flows through exactly the same detection machinery
// as a crash: ARQ give-ups raise suspicion, leases expire, the failure
// detector elects a successor, and deadline collectives degrade gracefully.
// The dying transmission itself still goes out (the link layer charges tx
// before fanning out deliveries), so the last frame of a depleted sender
// shares its timestamp with the "energy.depleted" event — the analyzer's
// depletion invariant treats that equal-time frame as legitimate and flags
// anything later.
//
// Determinism: crossings are a pure function of the charge sequence, which
// is a pure function of seed + plan; deaths land on the same tick in every
// replay (the depletion chaos campaigns assert byte-identical traces).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/deployment.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wsn::net {
class LinkLayer;
}

namespace wsn::sim {

/// One depletion death, in crossing order.
struct DepletionRecord {
  net::NodeId node = net::kNoNode;
  Time at = 0.0;      // simulation time of the budget crossing
  double budget = 0.0;
  double spent = 0.0;  // cumulative spend at the crossing (>= budget)
};

class DepletionMonitor {
 public:
  /// Watches `link`'s ledger. Call arm() once budgets are (or may become)
  /// finite; budgets set later through FaultPlan set_budget events are
  /// picked up automatically. The monitor must outlive the run (or be
  /// destroyed before the link, which detaches the ledger hook).
  DepletionMonitor(Simulator& sim, net::LinkLayer& link);
  ~DepletionMonitor();

  DepletionMonitor(const DepletionMonitor&) = delete;
  DepletionMonitor& operator=(const DepletionMonitor&) = delete;

  /// Installs the ledger hook and sweeps for nodes already past their
  /// budget (their deaths are recorded at the current simulation time).
  void arm();
  bool armed() const { return armed_; }

  /// Every depletion death so far, in crossing order.
  const std::vector<DepletionRecord>& deaths() const { return deaths_; }

  /// Nodes neither down nor depleted right now.
  std::size_t alive_count() const;

  /// Residual-energy distribution over the nodes with finite budgets
  /// (vacuously empty when every budget is infinite). Bucket range is
  /// [0, max finite budget].
  obs::Histogram residual_histogram(std::size_t buckets = 16) const;

  CounterSet& counters() { return counters_; }

  /// Registers "<prefix>.depleted_nodes" / "<prefix>.alive_nodes" gauges,
  /// the "<prefix>.residual" polled histogram, and the monitor's counters.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "energy") const;

 private:
  enum class Counter : std::uint8_t { kDepleted, kCount };
  static constexpr std::string_view kCounterNames[] = {"energy.depleted"};
  static_assert(counter_table_ok<Counter>(kCounterNames));

  void on_crossing(net::NodeId node);

  Simulator& sim_;
  net::LinkLayer& link_;
  bool armed_ = false;
  std::vector<DepletionRecord> deaths_;
  CounterSet counters_{kCounterNames};
};

}  // namespace wsn::sim
