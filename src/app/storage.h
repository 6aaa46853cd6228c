// Distributed storage of labeling results and decoupled query processing
// (Section 3.1): "Once this information is gathered and stored in the
// network, other queries can be answered. For example, a query to count the
// number of regions of interest can obtain and sum the local counts of each
// of the distributed storage nodes. Processing and responding to queries
// could be in most cases decoupled from the actual data gathering and
// boundary estimation process."
//
// During the aggregation round, every merging leader records how many
// regions *closed* at it (became fully interior to its block); the root
// additionally records the regions still open at the end. Each region
// closes at exactly one node, so the counts partition the region set: a
// later count query just sums one small scalar per storage node - far
// cheaper than re-running boundary estimation.
#pragma once

#include <cstdint>
#include <vector>

#include "app/boundary.h"
#include "app/feature_grid.h"
#include "app/topographic.h"
#include "core/fabric.h"
#include "core/primitives.h"

namespace wsn::app {

/// Per-node stored state after one gathering round.
struct RegionStore {
  /// closed_here[grid index] = regions whose boundary estimation finished
  /// at this node (plus, at the exfiltration node, the regions still open
  /// at the root).
  std::vector<double> closed_here;
  /// Ground-truth total (root's final count), for validation.
  std::uint64_t total_regions = 0;
  /// Costs of the gathering round that built the store.
  synthesis::RoundStats gather_round;
};

/// Runs one topographic gathering round on `fabric` and leaves the counting
/// state distributed across the merging leaders.
RegionStore run_and_store(core::MessageFabric& fabric, const FeatureGrid& grid,
                          const TopographicConfig& config = {});

/// Answers "how many regions of interest?" from the distributed store: a
/// convergecast sum of every node's stored count to the root leader (one
/// scalar unit per node; nodes storing nothing contribute zero locally and
/// are excluded from the message pattern). Runs the simulator to
/// completion.
core::PartialResult count_regions_query(core::MessageFabric& fabric,
                                        const RegionStore& store);

}  // namespace wsn::app
