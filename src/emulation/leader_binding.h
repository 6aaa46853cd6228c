// Binding virtual processes to physical nodes (Section 5.2).
//
// Within every cell, the node geographically closest to the cell center is
// elected to execute the virtual node's program: each node broadcasts its
// distance delta to the center; on hearing a smaller delta from a same-cell
// neighbor a node clears its ldr flag and re-broadcasts the smaller value;
// inter-cell messages are suppressed. On quiescence exactly one node per
// cell keeps ldr = true.
//
// The paper notes that "residual energy level or more sophisticated metrics
// could also be employed, especially if the role of leader is to be
// periodically rotated" - BindingMetric::kResidualEnergy implements that
// variant for the lifetime experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "emulation/cell_mapper.h"
#include "net/energy.h"
#include "net/link_layer.h"
#include "obs/metrics_registry.h"
#include "sim/trace.h"

namespace wsn::emulation {

/// Which scalar the election minimizes.
enum class BindingMetric : std::uint8_t {
  kDistanceToCenter,  // the paper's choice: align problem and network geometry
  kResidualEnergy,    // elect the node with most remaining energy
};

/// Outcome of one binding execution.
struct BindingResult {
  /// leaders[row * m + col] = physical node bound to virtual node (row,col);
  /// kNoNode for unoccupied cells.
  std::vector<net::NodeId> leaders;
  std::uint64_t broadcasts = 0;
  std::uint64_t suppressed = 0;
  double converged_at = 0.0;
  /// True iff every occupied cell elected exactly one leader.
  bool unique_leaders = true;

  net::NodeId leader_of(const core::GridCoord& cell, std::size_t m) const {
    return leaders[static_cast<std::size_t>(cell.row) * m +
                   static_cast<std::size_t>(cell.col)];
  }
};

/// Registers the audit counts of a completed binding run (by value) under
/// `prefix` in the registry.
inline void register_metrics(obs::MetricsRegistry& registry,
                             const BindingResult& result,
                             const std::string& prefix = "binding") {
  registry.add_gauge(prefix + ".broadcasts", [v = result.broadcasts] {
    return static_cast<double>(v);
  });
  registry.add_gauge(prefix + ".suppressed", [v = result.suppressed] {
    return static_cast<double>(v);
  });
  registry.add_gauge(prefix + ".converged_at",
                     [v = result.converged_at] { return v; });
  registry.add_gauge(prefix + ".unique_leaders", [v = result.unique_leaders] {
    return v ? 1.0 : 0.0;
  });
}

/// Runs the election to quiescence. Ties on the metric break toward the
/// lower node id, making the winner unique and deterministic. Nodes marked
/// down at the link layer do not participate.
BindingResult run_leader_binding(net::LinkLayer& link, const CellMapper& mapper,
                                 BindingMetric metric = BindingMetric::kDistanceToCenter,
                                 double jitter = 0.0);

/// Failover re-election (Section 5.2 maintenance): only cells whose bound
/// leader in `previous` has failed re-run the election among their live
/// members; healthy cells keep their leader. The returned result covers all
/// cells.
BindingResult run_binding_repair(net::LinkLayer& link, const CellMapper& mapper,
                                 const BindingResult& previous,
                                 BindingMetric metric = BindingMetric::kDistanceToCenter,
                                 double jitter = 0.0);

/// Reference (oracle) winner per cell, computed centrally; tests compare the
/// protocol's outcome against this. Pass `link` to exclude down nodes.
std::vector<net::NodeId> oracle_leaders(const CellMapper& mapper,
                                        BindingMetric metric,
                                        const net::EnergyLedger& ledger,
                                        const net::LinkLayer* link = nullptr);

/// Election score of node `id` under `metric` (lower wins, exact ties break
/// toward the lower id). One definition shared by the setup election, the
/// oracle references, and the distributed FailureDetector election, so all
/// of them deterministically agree on the same winner.
double binding_score(net::NodeId id, const CellMapper& mapper,
                     BindingMetric metric, const net::EnergyLedger& ledger);

}  // namespace wsn::emulation
