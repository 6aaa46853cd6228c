#include "app/incremental.h"

#include <set>
#include <stdexcept>
#include <utility>

namespace wsn::app {
namespace {

struct UpdateMsg {
  BlockSummary piece;
  std::uint32_t level;
};

}  // namespace

IncrementalAggregator::IncrementalAggregator(core::MessageFabric& fabric,
                                             TopographicConfig config)
    : fabric_(fabric), config_(config) {
  max_level_ = fabric_.groups().max_level();
  const std::size_t n = fabric_.grid().node_count();
  cache_.assign(max_level_, std::vector<QuadCache>(n));
  expected_.assign(max_level_, std::vector<std::uint32_t>(n, 0));
  received_.assign(max_level_, std::vector<std::uint32_t>(n, 0));

  for (const core::GridCoord& c : fabric_.grid().all_coords()) {
    fabric_.set_receiver(c, [this, c](core::VirtualMessage&& vmsg) {
      auto& msg = std::any_cast<UpdateMsg&>(vmsg.payload);
      on_update(c, msg.level, std::move(msg.piece));
    });
  }
}

std::size_t IncrementalAggregator::quadrant_of(const BlockSummary& piece,
                                               std::uint32_t level) const {
  const auto parent_side = static_cast<std::int32_t>(1u << level);
  const auto sub_side = parent_side / 2;
  const std::int32_t rel_r = (piece.row0 % parent_side) / sub_side;
  const std::int32_t rel_c = (piece.col0 % parent_side) / sub_side;
  return static_cast<std::size_t>(rel_r * 2 + rel_c);
}

void IncrementalAggregator::deliver_update(const core::GridCoord& target,
                                           std::uint32_t level,
                                           BlockSummary piece, bool via_network,
                                           const core::GridCoord& from) {
  if (!via_network) {
    // Self-contribution: free local hand-off at the current instant.
    fabric_.simulator().post(
        [this, target, level, piece = std::move(piece)]() mutable {
          on_update(target, level, std::move(piece));
        });
    return;
  }
  ++stats_.messages;
  const double units = config_.size_model.units(piece);
  fabric_.send(from, target, UpdateMsg{std::move(piece), level}, units);
}

void IncrementalAggregator::on_update(const core::GridCoord& self,
                                      std::uint32_t level,
                                      BlockSummary piece) {
  const std::size_t idx = fabric_.grid().index_of(self);
  const std::size_t quadrant = quadrant_of(piece, level);
  cache_[level - 1][idx].pieces[quadrant] = std::move(piece);
  ++received_[level - 1][idx];
  if (received_[level - 1][idx] >= expected_[level - 1][idx]) {
    try_reseal(self, level);
  }
}

void IncrementalAggregator::try_reseal(const core::GridCoord& self,
                                       std::uint32_t level) {
  const std::size_t idx = fabric_.grid().index_of(self);
  QuadCache& entry = cache_[level - 1][idx];
  if (!entry.complete()) return;  // cold round still filling in

  // Re-merge the four (partly cached, partly fresh) quadrants.
  stats_.merges += 3;
  const sim::Time lat = fabric_.compute(self, 3.0 * config_.merge_ops);
  BlockSummary sealed = merge4(*entry.pieces[0], *entry.pieces[1],
                               *entry.pieces[2], *entry.pieces[3]);
  fabric_.simulator().schedule_in(
      lat, [this, self, level, sealed = std::move(sealed)]() mutable {
        if (level == max_level_) {
          regions_ = finalize(sealed);
          stats_.finished_at = fabric_.simulator().now();
          return;
        }
        const core::GridCoord target =
            fabric_.groups().leader_of(self, level + 1);
        deliver_update(target, level + 1, std::move(sealed), !(target == self),
                       self);
      });
}

std::pair<std::vector<RegionInfo>, DeltaStats> IncrementalAggregator::round(
    const FeatureGrid& grid) {
  if (grid.side() != fabric_.grid().side()) {
    throw std::invalid_argument("IncrementalAggregator: grid side mismatch");
  }
  stats_ = DeltaStats{};
  for (auto& level : received_) {
    for (auto& v : level) v = 0;
  }
  for (auto& level : expected_) {
    for (auto& v : level) v = 0;
  }

  // Changed leaves: everything on the first round, the status diff after.
  std::vector<core::GridCoord> changed;
  for (const core::GridCoord& c : fabric_.grid().all_coords()) {
    if (!previous_.has_value() || previous_->at(c) != grid.at(c)) {
      changed.push_back(c);
    }
  }
  stats_.full_round = !previous_.has_value();
  stats_.changed_leaves = changed.size();
  previous_ = grid;

  if (max_level_ == 0) {
    // 1x1 grid: the single leaf is the root.
    regions_ = finalize(BlockSummary::leaf({0, 0}, grid.at({0, 0})));
    stats_.finished_at = fabric_.simulator().now();
    return {regions_, stats_};
  }

  if (changed.empty()) {
    // Nothing to do: the cached result stands.
    stats_.finished_at = fabric_.simulator().now();
    return {regions_, stats_};
  }

  // Expected update counts per aggregation point: one per changed child.
  // changed_at[l] = coords of level-l aggregation points with a changed
  // subtree (level 0 = the changed leaves themselves).
  std::set<core::GridCoord> frontier(changed.begin(), changed.end());
  for (std::uint32_t level = 1; level <= max_level_; ++level) {
    std::set<core::GridCoord> next;
    for (const core::GridCoord& child : frontier) {
      const core::GridCoord leader = fabric_.groups().leader_of(child, level);
      ++expected_[level - 1][fabric_.grid().index_of(leader)];
      next.insert(leader);
    }
    frontier = std::move(next);
  }

  // Kickoff: changed leaves re-sense and push their new summary.
  for (const core::GridCoord& leaf : changed) {
    const sim::Time lat = fabric_.compute(leaf, config_.sense_ops);
    BlockSummary piece = BlockSummary::leaf(leaf, grid.at(leaf));
    const core::GridCoord target = fabric_.groups().leader_of(leaf, 1);
    fabric_.simulator().schedule_in(
        lat, [this, leaf, target, piece = std::move(piece)]() mutable {
          deliver_update(target, 1, std::move(piece), !(target == leaf), leaf);
        });
  }

  fabric_.simulator().run();
  return {regions_, stats_};
}

}  // namespace wsn::app
