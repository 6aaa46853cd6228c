// BlockSummary construction, merging, and equivalence with the reference
// labeler - the correctness core of the in-network algorithm.
#include <gtest/gtest.h>

#include <algorithm>

#include "app/boundary.h"
#include "app/dnc.h"
#include "app/field.h"
#include "app/labeling.h"
#include "obs/profiler.h"

namespace wsn::app {
namespace {

std::vector<std::uint64_t> sorted_areas(const std::vector<RegionInfo>& regions) {
  std::vector<std::uint64_t> areas;
  areas.reserve(regions.size());
  for (const RegionInfo& r : regions) areas.push_back(r.area);
  std::ranges::sort(areas);
  return areas;
}

std::vector<std::uint64_t> sorted_areas(const Labeling& labeling) {
  std::vector<std::uint64_t> areas;
  for (const Region& r : labeling.regions) areas.push_back(r.area);
  std::ranges::sort(areas);
  return areas;
}

void expect_matches_reference(const FeatureGrid& grid) {
  const Labeling reference = label_regions(grid);
  const auto regions = dnc_label(grid);
  ASSERT_EQ(regions.size(), reference.region_count())
      << "grid:\n"
      << grid.render();
  EXPECT_EQ(sorted_areas(regions), sorted_areas(reference));
}

TEST(BlockSummary, LeafFeature) {
  const BlockSummary s = BlockSummary::leaf({3, 5}, true);
  s.validate();
  EXPECT_EQ(s.open_count(), 1u);
  EXPECT_EQ(s.closed_count(), 0u);
  EXPECT_EQ(s.total_area(), 1u);
  EXPECT_EQ(s.boundary_feature_cells(), 1u);
  EXPECT_EQ(s.open.at(0).bounds.row_min, 3);
  EXPECT_EQ(s.open.at(0).bounds.col_min, 5);
}

TEST(BlockSummary, LeafBackground) {
  const BlockSummary s = BlockSummary::leaf({0, 0}, false);
  s.validate();
  EXPECT_EQ(s.open_count(), 0u);
  EXPECT_EQ(s.total_area(), 0u);
  EXPECT_EQ(s.boundary_feature_cells(), 0u);
}

TEST(BlockSummary, MergeTwoFeatureLeavesHorizontally) {
  const BlockSummary a = BlockSummary::leaf({0, 0}, true);
  const BlockSummary b = BlockSummary::leaf({0, 1}, true);
  const BlockSummary m = merge(a, b);
  m.validate();
  EXPECT_EQ(m.width, 2u);
  EXPECT_EQ(m.height, 1u);
  EXPECT_EQ(m.open_count(), 1u);  // joined across the seam
  EXPECT_EQ(m.open.at(0).area, 2u);
}

TEST(BlockSummary, MergeTwoFeatureLeavesVertically) {
  const BlockSummary a = BlockSummary::leaf({0, 0}, true);
  const BlockSummary b = BlockSummary::leaf({1, 0}, true);
  const BlockSummary m = merge(a, b);
  m.validate();
  EXPECT_EQ(m.width, 1u);
  EXPECT_EQ(m.height, 2u);
  EXPECT_EQ(m.open_count(), 1u);
  EXPECT_EQ(m.open.at(0).area, 2u);
}

TEST(BlockSummary, MergeArgumentOrderIrrelevant) {
  const BlockSummary a = BlockSummary::leaf({0, 0}, true);
  const BlockSummary b = BlockSummary::leaf({0, 1}, true);
  const BlockSummary m1 = merge(a, b);
  const BlockSummary m2 = merge(b, a);
  EXPECT_EQ(m1.open_count(), m2.open_count());
  EXPECT_EQ(m1.total_area(), m2.total_area());
  EXPECT_EQ(m1.north, m2.north);
}

TEST(BlockSummary, NonAdjacentMergeThrows) {
  const BlockSummary a = BlockSummary::leaf({0, 0}, true);
  const BlockSummary b = BlockSummary::leaf({1, 1}, true);  // diagonal
  EXPECT_THROW(merge(a, b), std::invalid_argument);
  EXPECT_FALSE(a.mergeable_with(b));
}

TEST(BlockSummary, SizeMismatchMergeThrows) {
  FeatureGrid g(4);
  const BlockSummary wide = BlockSummary::of_rect(g, 0, 0, 2, 1);
  const BlockSummary tall = BlockSummary::of_rect(g, 1, 0, 1, 2);
  EXPECT_THROW(merge(wide, tall), std::invalid_argument);
}

TEST(BlockSummary, RegionClosesWhenLeavingPerimeter) {
  // A single feature cell in the middle of a 4x4 block: open in the 2x2
  // quadrant summary, closed after the full merge.
  FeatureGrid g(4);
  g.set({1, 1}, true);
  const BlockSummary quadrant = BlockSummary::of_rect(g, 0, 0, 2, 2);
  EXPECT_EQ(quadrant.open_count(), 1u);  // touches the quadrant's perimeter
  const BlockSummary whole = BlockSummary::of_rect(g, 0, 0, 4, 4);
  EXPECT_EQ(whole.open_count(), 0u);
  EXPECT_EQ(whole.closed_count(), 1u);
  EXPECT_EQ(whole.closed[0].area, 1u);
}

TEST(BlockSummary, OfRectMatchesIncrementalMerge) {
  sim::Rng rng(11);
  const FeatureGrid g = random_grid(8, 0.5, rng);
  // Merge the four 4x4 quadrant references and compare with the 8x8
  // reference summary.
  const BlockSummary nw = BlockSummary::of_rect(g, 0, 0, 4, 4);
  const BlockSummary ne = BlockSummary::of_rect(g, 0, 4, 4, 4);
  const BlockSummary sw = BlockSummary::of_rect(g, 4, 0, 4, 4);
  const BlockSummary se = BlockSummary::of_rect(g, 4, 4, 4, 4);
  const BlockSummary merged = merge4(nw, ne, sw, se);
  merged.validate();
  const BlockSummary reference = BlockSummary::of_rect(g, 0, 0, 8, 8);
  EXPECT_EQ(merged.north, reference.north);
  EXPECT_EQ(merged.south, reference.south);
  EXPECT_EQ(merged.west, reference.west);
  EXPECT_EQ(merged.east, reference.east);
  EXPECT_EQ(merged.open_count(), reference.open_count());
  EXPECT_EQ(merged.total_area(), reference.total_area());
  EXPECT_EQ(sorted_areas(finalize(merged)), sorted_areas(finalize(reference)));
}

/// The summary of the side x side block at (row0, col0), merged up from its
/// leaves with `scratch`: west with east, then north with south.
BlockSummary merge_up(const FeatureGrid& g, std::int32_t row0,
                      std::int32_t col0, std::uint32_t side,
                      MergeScratch& scratch) {
  if (side == 1) return BlockSummary::leaf({row0, col0}, g.at(row0, col0));
  const std::uint32_t half = side / 2;
  const auto h = static_cast<std::int32_t>(half);
  BlockSummary north = merge(merge_up(g, row0, col0, half, scratch),
                             merge_up(g, row0, col0 + h, half, scratch),
                             scratch);
  BlockSummary south = merge(merge_up(g, row0 + h, col0, half, scratch),
                             merge_up(g, row0 + h, col0 + h, half, scratch),
                             scratch);
  return merge(std::move(north), std::move(south), scratch);
}

void expect_equal_summaries(const BlockSummary& merged,
                            const BlockSummary& reference) {
  EXPECT_EQ(merged.north, reference.north);
  EXPECT_EQ(merged.south, reference.south);
  EXPECT_EQ(merged.west, reference.west);
  EXPECT_EQ(merged.east, reference.east);
  EXPECT_EQ(merged.open, reference.open);
  EXPECT_EQ(sorted_areas(merged.closed), sorted_areas(reference.closed));
}

TEST(BlockSummary, BlocksUpTo4x4StayInPlace) {
  // X . X .   The NW quadrant holds a diagonal pair: two open regions, the
  // . X X .   in-place capacity. (1, 1) joins (0, 2) through the NE
  // . . . .   quadrant, so the 4x4 block keeps two open regions and closes
  // . . . .   none; its edges of 4 labels fit in place.
  FeatureGrid g(4);
  for (const auto& [r, c] : {std::pair{0, 0}, {0, 2}, {1, 1}, {1, 2}}) {
    g.set({r, c}, true);
  }
  MergeScratch scratch;
  auto block = [&] {
    QuadAccumulator acc(scratch);
    for (const auto& [r, c] : {std::pair{0, 0}, {0, 2}, {2, 0}, {2, 2}}) {
      acc.add(merge_up(g, r, c, 2, scratch));
    }
    return acc.take();
  };
  block();  // grows the scratch
  std::uint64_t before = obs::global_alloc_stats().count;
  const BlockSummary leaf = BlockSummary::leaf({3, 5}, true);
  EXPECT_EQ(obs::global_alloc_stats().count - before, 0u);
  EXPECT_EQ(leaf.open_count(), 1u);

  before = obs::global_alloc_stats().count;
  const BlockSummary merged = block();
  EXPECT_EQ(obs::global_alloc_stats().count - before, 0u);
  EXPECT_EQ(merged.open_count(), BlockSummary::kOpenInPlace);
  EXPECT_EQ(merged.closed_count(), 0u);
  expect_equal_summaries(merged, BlockSummary::of_rect(g, 0, 0, 4, 4));
}

TEST(BlockSummary, MergesThatSpillMatchOfRect) {
  // Past 4x4 the edges, and here the open regions too, outgrow their
  // in-place capacity and move to the heap.
  sim::Rng rng(5);
  const FeatureGrid g = random_grid(16, 0.5, rng);
  MergeScratch scratch;
  for (const std::uint32_t side : {8u, 16u}) {
    const BlockSummary reference = BlockSummary::of_rect(g, 0, 0, side, side);
    EXPECT_GT(reference.north.size(), BlockSummary::kEdgeInPlace);
    EXPECT_GT(reference.open_count(), BlockSummary::kOpenInPlace);
    const BlockSummary merged = merge_up(g, 0, 0, side, scratch);
    merged.validate();
    expect_equal_summaries(merged, reference);
  }
}

TEST(BlockSummary, SpiralRegionSurvivesManyMerges) {
  // A region that snakes across all four quadrants must stay one region.
  FeatureGrid g(8);
  for (std::int32_t c = 0; c < 8; ++c) g.set({0, c}, true);
  for (std::int32_t r = 0; r < 8; ++r) g.set({r, 7}, true);
  for (std::int32_t c = 2; c < 8; ++c) g.set({7, c}, true);
  for (std::int32_t r = 2; r < 8; ++r) g.set({r, 2}, true);
  expect_matches_reference(g);
}

TEST(Dnc, MatchesReferenceOnFixtures) {
  for (std::size_t side : {1u, 2u, 4u, 8u, 16u, 32u}) {
    expect_matches_reference(empty_grid(side));
    expect_matches_reference(full_grid(side));
    expect_matches_reference(checkerboard_grid(side));
    if (side >= 4) {
      expect_matches_reference(stripes_grid(side, 2));
      expect_matches_reference(ring_grid(side));
    }
  }
}

TEST(Dnc, StatsCountLevelsAndSteps) {
  DncStats stats;
  dnc_summary(full_grid(16), &stats);
  EXPECT_EQ(stats.levels, 4u);
  EXPECT_EQ(stats.merges, 3u * 85u);  // 85 interior nodes, 3 merges each
  // steps = sum over levels of 2^(l-1) + 1 = (16 - 1) + 4.
  EXPECT_EQ(stats.steps, 19u);
}

TEST(Dnc, NonPowerOfTwoThrows) {
  EXPECT_THROW(dnc_summary(FeatureGrid(6)), std::invalid_argument);
}

TEST(QuadAccumulator, MergesInAnyArrivalOrder) {
  sim::Rng rng(3);
  const FeatureGrid g = random_grid(4, 0.6, rng);
  const BlockSummary reference = BlockSummary::of_rect(g, 0, 0, 4, 4);
  std::vector<BlockSummary> quadrants = {
      BlockSummary::of_rect(g, 0, 0, 2, 2), BlockSummary::of_rect(g, 0, 2, 2, 2),
      BlockSummary::of_rect(g, 2, 0, 2, 2), BlockSummary::of_rect(g, 2, 2, 2, 2)};
  std::vector<std::size_t> order{0, 1, 2, 3};
  MergeScratch scratch;
  do {
    QuadAccumulator acc(scratch);
    std::uint32_t merges = 0;
    for (std::size_t i : order) merges += acc.add(quadrants[i]);
    ASSERT_TRUE(acc.complete());
    EXPECT_EQ(merges, 3u);
    const BlockSummary result = acc.take();
    EXPECT_EQ(result.open_count(), reference.open_count());
    EXPECT_EQ(result.total_area(), reference.total_area());
    EXPECT_EQ(sorted_areas(finalize(result)),
              sorted_areas(finalize(reference)));
    EXPECT_FALSE(acc.complete());  // take() resets
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(QuadAccumulator, TakeBeforeCompleteThrows) {
  MergeScratch scratch;
  QuadAccumulator acc(scratch);
  acc.add(BlockSummary::leaf({0, 0}, true));
  EXPECT_THROW(acc.take(), std::logic_error);
}

TEST(QuadAccumulator, FifthPieceThrows) {
  MergeScratch scratch;
  QuadAccumulator acc(scratch);
  for (const auto& [r, c] : {std::pair{0, 0}, {0, 1}, {1, 0}, {1, 1}}) {
    acc.add(BlockSummary::leaf({r, c}, true));
  }
  EXPECT_THROW(acc.add(BlockSummary::leaf({2, 0}, true)), std::logic_error);
}

TEST(SummarySizeModel, CountsBoundaryAndRegions) {
  FeatureGrid g(4);
  g.set({0, 0}, true);
  g.set({0, 1}, true);
  g.set({3, 3}, true);
  const BlockSummary s = BlockSummary::of_rect(g, 0, 0, 4, 4);
  const SummarySizeModel model{1.0, 0.1, 0.5};
  // 3 boundary feature cells, 2 open regions.
  EXPECT_DOUBLE_EQ(model.units(s), 1.0 + 0.3 + 1.0);
  const SummarySizeModel fixed{};
  EXPECT_DOUBLE_EQ(fixed.units(s), 1.0);
}

TEST(BlockSummary, ValidateCatchesCorruption) {
  BlockSummary s = BlockSummary::leaf({0, 0}, true);
  s.north[0] = 2;  // label not in open map, corner inconsistent
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(BlockSummary, BoundsTrackRegionsAcrossMerges) {
  FeatureGrid g(8);
  // L-shaped region spanning quadrants.
  for (std::int32_t r = 2; r <= 5; ++r) g.set({r, 3}, true);
  for (std::int32_t c = 3; c <= 6; ++c) g.set({5, c}, true);
  const auto regions = dnc_label(g);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].area, 7u);
  EXPECT_EQ(regions[0].bounds.row_min, 2);
  EXPECT_EQ(regions[0].bounds.row_max, 5);
  EXPECT_EQ(regions[0].bounds.col_min, 3);
  EXPECT_EQ(regions[0].bounds.col_max, 6);
}

}  // namespace
}  // namespace wsn::app
