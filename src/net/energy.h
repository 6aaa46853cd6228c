// Per-node energy accounting.
//
// Implements the paper's uniform cost model bookkeeping: every transmission,
// reception, or computation of one unit of data costs one unit of energy
// (Section 3.2). The ledger tracks category totals so benches can report
// total energy, energy balance, and network lifetime (first depletion).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/deployment.h"
#include "sim/trace.h"

namespace wsn::net {

/// Energy expenditure categories.
enum class EnergyUse : std::uint8_t { kTx = 0, kRx = 1, kCompute = 2 };
inline constexpr std::size_t kEnergyUseCount = 3;

/// Snapshot of the energy state of a network (virtual or physical): the
/// paper's total-energy and energy-balance metrics plus the split by use.
struct EnergyReport {
  double total = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;   // stddev/mean: the energy-balance indicator
  double max = 0.0;  // hottest node
  double min = 0.0;
  double tx = 0.0;
  double rx = 0.0;
  double compute = 0.0;
};

/// Tracks energy spent (and optionally a finite initial budget) per node.
class EnergyLedger {
 public:
  /// Called exactly once per node, synchronously from the charge (or
  /// set_budget) that crosses its budget. Depletion is latched: once a
  /// node has crossed, later charges or budget raises never re-fire it.
  using DepletionCallback = std::function<void(NodeId)>;

  /// `initial_budget` of infinity models the paper's analysis setting where
  /// only totals matter; a finite budget enables lifetime experiments.
  explicit EnergyLedger(
      std::size_t node_count,
      double initial_budget = std::numeric_limits<double>::infinity())
      : budget_(initial_budget),
        spent_(node_count, 0.0),
        by_use_(node_count * kEnergyUseCount, 0.0),
        crossed_(node_count, false),
        finite_(initial_budget !=
                std::numeric_limits<double>::infinity()) {}

  std::size_t node_count() const { return spent_.size(); }
  double budget() const { return budget_; }

  /// Effective budget of one node: its override if set, else the default.
  double budget(NodeId node) const {
    return budget_override_.empty() ? budget_ : budget_override_[node];
  }
  /// Per-node battery override (heterogeneous budgets; FaultPlan's
  /// set_budget lands here). A budget at or below the node's current spend
  /// marks it depleted immediately — the crossing fires from this call.
  void set_budget(NodeId node, double budget) {
    if (budget < 0) {
      throw std::invalid_argument("EnergyLedger: negative budget");
    }
    if (budget_override_.empty()) {
      budget_override_.assign(spent_.size(), budget_);
    }
    budget_override_[node] = budget;
    finite_ = true;
    note_crossing(node);
  }

  /// Installs the depletion hook (one per ledger; replaces any previous).
  /// Nodes that crossed before the hook was installed do NOT re-fire — the
  /// DepletionMonitor sweeps for them at arm() time instead.
  void set_on_depleted(DepletionCallback cb) { on_depleted_ = std::move(cb); }

  /// Records `amount` units of energy spent by `node` for `use`. Charges
  /// keep accumulating after depletion (the dying transmission is still
  /// paid for); only the crossing itself is reported, once.
  void charge(NodeId node, EnergyUse use, double amount) {
    if (amount < 0) {
      throw std::invalid_argument("EnergyLedger: negative charge");
    }
    spent_[node] += amount;
    by_use_[node * kEnergyUseCount + static_cast<std::size_t>(use)] += amount;
    if (finite_) note_crossing(node);
  }

  double spent(NodeId node) const { return spent_[node]; }
  double spent(NodeId node, EnergyUse use) const {
    return by_use_[node * kEnergyUseCount + static_cast<std::size_t>(use)];
  }
  /// Residual energy, clamped at zero: a node that overshot its budget by
  /// one in-flight frame reports 0 left, never a negative battery.
  double remaining(NodeId node) const {
    return std::max(budget(node) - spent_[node], 0.0);
  }
  bool depleted(NodeId node) const { return spent_[node] >= budget(node); }

  /// Nodes whose budget crossing has been reported (== ever depleted).
  std::size_t depleted_count() const {
    std::size_t n = 0;
    for (const bool c : crossed_) n += c ? 1 : 0;
    return n;
  }

  /// Sum over all nodes (the paper's "total energy" metric).
  double total() const {
    double t = 0;
    for (double s : spent_) t += s;
    return t;
  }

  double total(EnergyUse use) const {
    double t = 0;
    for (std::size_t i = 0; i < spent_.size(); ++i) {
      t += by_use_[i * kEnergyUseCount + static_cast<std::size_t>(use)];
    }
    return t;
  }

  /// Distribution of per-node spend; stddev/cv capture "energy balance".
  sim::Summary distribution() const {
    sim::Summary s;
    for (double v : spent_) s.add(v);
    return s;
  }

  /// The ledger's EnergyReport. Metrics snapshots and the benches read
  /// this one function, so their numbers agree to the last bit.
  EnergyReport report() const {
    const sim::Summary d = distribution();
    return {.total = d.sum(),
            .mean = d.mean(),
            .stddev = d.stddev(),
            .cv = d.cv(),
            .max = d.max(),
            .min = d.min(),
            .tx = total(EnergyUse::kTx),
            .rx = total(EnergyUse::kRx),
            .compute = total(EnergyUse::kCompute)};
  }

  /// Id of the node that has spent the most energy (the first to die under
  /// a finite budget); kNoNode when the ledger is empty.
  NodeId hottest() const {
    NodeId best = kNoNode;
    double most = -1.0;
    for (std::size_t i = 0; i < spent_.size(); ++i) {
      if (spent_[i] > most) {
        most = spent_[i];
        best = static_cast<NodeId>(i);
      }
    }
    return best;
  }

  void reset() {
    for (double& s : spent_) s = 0;
    for (double& s : by_use_) s = 0;
    crossed_.assign(spent_.size(), false);
  }

 private:
  /// Latched exactly-once crossing detection: the flag flips on the first
  /// budget crossing and never clears (raising a depleted node's budget
  /// does not resurrect it — dead nodes stay dead, deterministically).
  void note_crossing(NodeId node) {
    if (crossed_[node] || spent_[node] < budget(node)) return;
    crossed_[node] = true;
    if (on_depleted_) on_depleted_(node);
  }

  double budget_;
  std::vector<double> spent_;
  std::vector<double> by_use_;  // node-major [node][use]
  std::vector<double> budget_override_;  // empty = uniform budget_
  std::vector<bool> crossed_;
  bool finite_;  // any finite budget possible; guards the charge hot path
  DepletionCallback on_depleted_;
};

}  // namespace wsn::net
