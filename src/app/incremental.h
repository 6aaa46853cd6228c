// Incremental re-aggregation across sampling rounds.
//
// Section 4.1: "Leaf nodes sample at a known frequency, and every 'round'
// of sampling triggers one execution of the entire task graph." When the
// phenomenon evolves slowly, most leaves resample the same status; this
// engine caches every node's last sealed block summary and, on a new round,
// re-executes the task graph only along root-to-leaf paths containing a
// changed leaf. Unchanged quadrants contribute their cached summaries for
// free, so the message count drops from side^2 - 1 to the number of tree
// edges on changed paths.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "app/boundary.h"
#include "app/feature_grid.h"
#include "app/topographic.h"
#include "core/fabric.h"

namespace wsn::app {

/// Statistics of one incremental round.
struct DeltaStats {
  std::size_t changed_leaves = 0;
  std::uint64_t messages = 0;      // network messages this round
  std::uint64_t merges = 0;        // pairwise summary merges performed
  double finished_at = 0.0;        // simulation time of root completion
  bool full_round = false;         // true for the initial (cold) round
};

/// Event-driven incremental aggregation engine bound to one fabric. The
/// engine owns the fabric's receivers while a round is in flight.
class IncrementalAggregator {
 public:
  IncrementalAggregator(core::MessageFabric& fabric,
                        TopographicConfig config = {});

  /// Runs a round against `grid` (drives the simulator to completion).
  /// The first call is a full round; subsequent calls re-aggregate only
  /// changed paths. Returns the labeled regions and the round statistics.
  std::pair<std::vector<RegionInfo>, DeltaStats> round(const FeatureGrid& grid);

  /// Regions from the most recent round.
  const std::vector<RegionInfo>& regions() const { return regions_; }

 private:
  /// Cache entry of one interior (leader, level) aggregation point: the four
  /// quadrant summaries in NW, NE, SW, SE order.
  struct QuadCache {
    std::array<std::optional<BlockSummary>, 4> pieces;
    bool complete() const {
      for (const auto& p : pieces) {
        if (!p.has_value()) return false;
      }
      return true;
    }
  };

  /// Quadrant position (0 NW, 1 NE, 2 SW, 3 SE) of a child block within its
  /// parent block at `level`.
  std::size_t quadrant_of(const BlockSummary& piece, std::uint32_t level) const;

  void deliver_update(const core::GridCoord& target, std::uint32_t level,
                      BlockSummary piece, bool via_network,
                      const core::GridCoord& from);
  void on_update(const core::GridCoord& self, std::uint32_t level,
                 BlockSummary piece);
  void try_reseal(const core::GridCoord& self, std::uint32_t level);

  core::MessageFabric& fabric_;
  TopographicConfig config_;
  std::uint32_t max_level_;

  std::optional<FeatureGrid> previous_;
  /// cache_[level-1][leader grid index] for levels 1..max.
  std::vector<std::vector<QuadCache>> cache_;
  /// Per-round bookkeeping.
  std::vector<std::vector<std::uint32_t>> expected_;  // updates per (lvl,idx)
  std::vector<std::vector<std::uint32_t>> received_;
  std::vector<RegionInfo> regions_;
  DeltaStats stats_;
};

}  // namespace wsn::app
