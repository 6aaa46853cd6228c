// Performance metrics derived from the cost model (Section 2): "total
// energy, energy balance, total latency of a set of operations, system
// lifetime, etc., are various performance metrics that can be calculated
// from the cost model, but which of these to use will depend on the
// algorithm designer's objective." The per-network energy snapshot is
// net::EnergyLedger::report(); this header adds the derived metrics.
#pragma once

#include "net/energy.h"

namespace wsn::analysis {

/// Rounds until the hottest node exhausts `budget` units of energy, if each
/// round costs what the ledger currently shows (steady-state workload).
inline double projected_lifetime_rounds(const net::EnergyLedger& ledger,
                                        double budget) {
  const double per_round = ledger.distribution().max();
  if (per_round <= 0.0) return 0.0;
  return budget / per_round;
}

}  // namespace wsn::analysis
