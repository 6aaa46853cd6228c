// Parameterized property sweeps: the library's key invariants checked over
// randomized inputs and parameter grids (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "analysis/analytical.h"
#include "app/boundary.h"
#include "app/dnc.h"
#include "app/field.h"
#include "app/labeling.h"
#include "app/queries.h"
#include "app/topographic.h"
#include "core/virtual_network.h"
#include "taskgraph/mapping.h"

namespace wsn {
namespace {

std::vector<std::uint64_t> sorted_areas(
    const std::vector<app::RegionInfo>& regions) {
  std::vector<std::uint64_t> areas;
  for (const app::RegionInfo& r : regions) areas.push_back(r.area);
  std::ranges::sort(areas);
  return areas;
}

std::vector<std::uint64_t> sorted_areas(const app::Labeling& labeling) {
  std::vector<std::uint64_t> areas;
  for (const app::Region& r : labeling.regions) areas.push_back(r.area);
  std::ranges::sort(areas);
  return areas;
}

// ---------------------------------------------------------------------------
// Property: divide-and-conquer labeling == reference labeling, over a sweep
// of (grid side, feature density, seed).
// ---------------------------------------------------------------------------
class DncEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, int>> {};

TEST_P(DncEquivalence, RegionsMatchReference) {
  const auto [side, density, seed] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + side);
  const app::FeatureGrid grid = app::random_grid(side, density, rng);
  const app::Labeling reference = app::label_regions(grid);
  const auto regions = app::dnc_label(grid);
  ASSERT_EQ(regions.size(), reference.region_count());
  EXPECT_EQ(sorted_areas(regions), sorted_areas(reference));
  // Bounding boxes must match as multisets too.
  auto key = [](const app::GridBounds& b) {
    return std::tuple{b.row_min, b.col_min, b.row_max, b.col_max};
  };
  std::vector<std::tuple<int, int, int, int>> got;
  std::vector<std::tuple<int, int, int, int>> want;
  for (const auto& r : regions) got.push_back(key(r.bounds));
  for (const auto& r : reference.regions) want.push_back(key(r.bounds));
  std::ranges::sort(got);
  std::ranges::sort(want);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DncEquivalence,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 8, 16, 32),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Property: every pairwise summary merge equals the reference summary of the
// union rectangle (checked at random split positions).
// ---------------------------------------------------------------------------
class MergeCorrectness
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MergeCorrectness, PairwiseMergeMatchesOfRect) {
  const auto [seed, density] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t side = 12;
  const app::FeatureGrid grid = app::random_grid(side, density, rng);
  for (int trial = 0; trial < 20; ++trial) {
    // Random rectangle split either vertically or horizontally.
    const auto w =
        static_cast<std::uint32_t>(rng.between(2, static_cast<int>(side)));
    const auto h =
        static_cast<std::uint32_t>(rng.between(2, static_cast<int>(side)));
    const auto row0 = static_cast<std::int32_t>(
        rng.below(side - h + 1));
    const auto col0 = static_cast<std::int32_t>(
        rng.below(side - w + 1));
    const bool vertical = rng.chance(0.5);
    app::BlockSummary a;
    app::BlockSummary b;
    if (vertical && h >= 2) {
      const auto cut = static_cast<std::uint32_t>(rng.between(1, h - 1));
      a = app::BlockSummary::of_rect(grid, row0, col0, w, cut);
      b = app::BlockSummary::of_rect(grid, row0 + static_cast<std::int32_t>(cut),
                                     col0, w, h - cut);
    } else {
      const auto cut = static_cast<std::uint32_t>(rng.between(1, w - 1));
      a = app::BlockSummary::of_rect(grid, row0, col0, cut, h);
      b = app::BlockSummary::of_rect(grid, row0,
                                     col0 + static_cast<std::int32_t>(cut),
                                     w - cut, h);
    }
    const app::BlockSummary merged = app::merge(a, b);
    merged.validate();
    const app::BlockSummary reference =
        app::BlockSummary::of_rect(grid, row0, col0, w, h);
    EXPECT_EQ(merged.north, reference.north);
    EXPECT_EQ(merged.south, reference.south);
    EXPECT_EQ(merged.west, reference.west);
    EXPECT_EQ(merged.east, reference.east);
    EXPECT_EQ(merged.total_area(), reference.total_area());
    EXPECT_EQ(sorted_areas(app::finalize(merged)),
              sorted_areas(app::finalize(reference)));
  }
}

/// Regions as a sorted list of (area, bounds), for multiset comparison.
std::vector<std::tuple<std::uint64_t, int, int, int, int>> sorted_regions(
    const std::vector<app::RegionInfo>& regions) {
  std::vector<std::tuple<std::uint64_t, int, int, int, int>> keys;
  for (const app::RegionInfo& r : regions) {
    keys.emplace_back(r.area, r.bounds.row_min, r.bounds.col_min,
                      r.bounds.row_max, r.bounds.col_max);
  }
  std::ranges::sort(keys);
  return keys;
}

// The consuming merge, as a query round runs it: one workspace shared by
// every merge, pieces moved in. Its result must equal the reference summary
// of the union in full (edges, open regions by label, closed regions as a
// multiset) whichever piece is passed first and whichever way the pieces
// meet, down to 1-row and 1-column extents.
TEST_P(MergeCorrectness, ConsumingMergeMatchesOfRectExactly) {
  const auto [seed, density] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed) + 100);
  const int side = 12;
  const app::FeatureGrid grid =
      app::random_grid(static_cast<std::size_t>(side), density, rng);
  app::MergeScratch scratch;
  for (int trial = 0; trial < 48; ++trial) {
    const bool stacked = trial % 2 == 0;      // north/south, else west/east
    const bool swapped = trial % 4 >= 2;      // east or south piece first
    const bool thin = trial % 8 >= 6;         // one row or one column
    // The split dimension needs two cells; the other may be one.
    const auto w = static_cast<std::uint32_t>(
        stacked && thin ? 1 : rng.between(stacked ? 1 : 2, side));
    const auto h = static_cast<std::uint32_t>(
        !stacked && thin ? 1 : rng.between(stacked ? 2 : 1, side));
    const auto row0 = static_cast<std::int32_t>(rng.below(side - h + 1));
    const auto col0 = static_cast<std::int32_t>(rng.below(side - w + 1));
    app::BlockSummary first;
    app::BlockSummary second;
    if (stacked) {
      const auto cut = static_cast<std::uint32_t>(rng.between(1, h - 1));
      first = app::BlockSummary::of_rect(grid, row0, col0, w, cut);
      second = app::BlockSummary::of_rect(
          grid, row0 + static_cast<std::int32_t>(cut), col0, w, h - cut);
    } else {
      const auto cut = static_cast<std::uint32_t>(rng.between(1, w - 1));
      first = app::BlockSummary::of_rect(grid, row0, col0, cut, h);
      second = app::BlockSummary::of_rect(
          grid, row0, col0 + static_cast<std::int32_t>(cut), w - cut, h);
    }
    const app::BlockSummary merged =
        swapped ? app::merge(std::move(second), std::move(first), scratch)
                : app::merge(std::move(first), std::move(second), scratch);
    merged.validate();
    const app::BlockSummary reference =
        app::BlockSummary::of_rect(grid, row0, col0, w, h);
    SCOPED_TRACE(reference.describe());
    EXPECT_EQ(merged.row0, reference.row0);
    EXPECT_EQ(merged.col0, reference.col0);
    EXPECT_EQ(merged.width, reference.width);
    EXPECT_EQ(merged.height, reference.height);
    EXPECT_EQ(merged.north, reference.north);
    EXPECT_EQ(merged.south, reference.south);
    EXPECT_EQ(merged.west, reference.west);
    EXPECT_EQ(merged.east, reference.east);
    EXPECT_EQ(merged.open, reference.open);
    EXPECT_EQ(sorted_regions(merged.closed), sorted_regions(reference.closed));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MergeCorrectness,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(0.3, 0.5, 0.7)));

// ---------------------------------------------------------------------------
// Property: the full virtual-layer topographic run agrees with the reference
// labeler for every field family.
// ---------------------------------------------------------------------------
enum class FieldKind { kRandom, kHotspots, kPlume, kNoise, kRing, kStripes };

class VirtualRunEquivalence
    : public ::testing::TestWithParam<std::tuple<FieldKind, int>> {};

app::FeatureGrid make_field(FieldKind kind, std::size_t side, int seed) {
  sim::Rng rng(static_cast<std::uint64_t>(seed) + 101);
  switch (kind) {
    case FieldKind::kRandom:
      return app::random_grid(side, 0.45, rng);
    case FieldKind::kHotspots:
      return app::threshold_sample(app::hotspot_field(4, rng), side, 0.5);
    case FieldKind::kPlume:
      return app::threshold_sample(
          app::plume_field(0.2, 0.5, rng.uniform(0.0, 1.5)), side, 0.3);
    case FieldKind::kNoise:
      return app::threshold_sample(
          app::value_noise_field(static_cast<std::uint64_t>(seed)), side, 0.55);
    case FieldKind::kRing:
      return app::ring_grid(side);
    case FieldKind::kStripes:
      return app::stripes_grid(side, 1 + static_cast<std::size_t>(seed) % 3);
  }
  return app::empty_grid(side);
}

TEST_P(VirtualRunEquivalence, DistributedLabelsMatchReference) {
  const auto [kind, seed] = GetParam();
  const std::size_t side = 16;
  const app::FeatureGrid grid = make_field(kind, side, seed);
  sim::Simulator sim(static_cast<std::uint64_t>(seed) + 1);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model());
  const auto outcome = app::run_topographic_query(vnet, grid);
  const app::Labeling reference = app::label_regions(grid);
  EXPECT_EQ(outcome.regions.size(), reference.region_count());
  EXPECT_EQ(sorted_areas(outcome.regions), sorted_areas(reference));
  // Query layer consistency.
  EXPECT_EQ(app::total_feature_area(outcome.regions), grid.feature_count());
  EXPECT_EQ(app::count_regions(outcome.regions), reference.region_count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VirtualRunEquivalence,
    ::testing::Combine(::testing::Values(FieldKind::kRandom, FieldKind::kHotspots,
                                         FieldKind::kPlume, FieldKind::kNoise,
                                         FieldKind::kRing, FieldKind::kStripes),
                       ::testing::Values(1, 2, 3, 4)));

// ---------------------------------------------------------------------------
// Property: analytical quad-tree predictions match virtual measurements for
// every (grid side, cost model) combination.
// ---------------------------------------------------------------------------
class PredictionAccuracy
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, double>> {
};

TEST_P(PredictionAccuracy, VirtualMeasurementEqualsPrediction) {
  const auto [side, bandwidth, speed] = GetParam();
  core::CostModel cost;
  cost.bandwidth = bandwidth;
  cost.processing_speed = speed;
  const app::FeatureGrid grid = app::full_grid(side);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(side), cost);
  const auto outcome = app::run_topographic_query(vnet, grid);
  const auto predicted = analysis::predict_quadtree(side, cost);
  EXPECT_EQ(outcome.round.messages_sent, predicted.messages);
  EXPECT_DOUBLE_EQ(outcome.round.finished_at, predicted.latency);
  EXPECT_DOUBLE_EQ(vnet.ledger().total(), predicted.total_energy);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PredictionAccuracy,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 8, 16),
                       ::testing::Values(0.5, 1.0, 4.0),
                       ::testing::Values(0.5, 1.0, 2.0)));

// ---------------------------------------------------------------------------
// Property: paper mapping satisfies both constraints at every size; the
// evaluator's hop count matches the closed form 2m^2 - 2m.
// ---------------------------------------------------------------------------
class MappingInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MappingInvariants, ConstraintsAndClosedFormHops) {
  const std::size_t side = GetParam();
  const taskgraph::QuadTree tree = taskgraph::build_quad_tree(side);
  core::GridTopology grid(side);
  core::GroupHierarchy groups(grid);
  const auto mapping = taskgraph::paper_mapping(tree, groups);
  EXPECT_TRUE(taskgraph::satisfies_constraints(tree.graph, mapping, grid));
  const auto cost = taskgraph::evaluate_mapping(tree.graph, mapping, grid,
                                                core::uniform_cost_model());
  EXPECT_EQ(cost.total_hops, 2 * side * side - 2 * side);
  const auto predicted =
      analysis::predict_quadtree(side, core::uniform_cost_model());
  EXPECT_EQ(cost.total_hops, predicted.total_hops);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MappingInvariants,
                         ::testing::Values<std::size_t>(2, 4, 8, 16, 32, 64));

// ---------------------------------------------------------------------------
// Property: query layer consistency over random fields.
// ---------------------------------------------------------------------------
class QueryConsistency : public ::testing::TestWithParam<int> {};

TEST_P(QueryConsistency, QueriesAgreeWithRegionList) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const app::FeatureGrid grid = app::random_grid(16, 0.4, rng);
  const auto regions = app::dnc_label(grid);
  EXPECT_EQ(app::total_feature_area(regions), grid.feature_count());
  const auto largest = app::largest_region(regions);
  if (!regions.empty()) {
    ASSERT_TRUE(largest.has_value());
    for (const auto& r : regions) EXPECT_LE(r.area, largest->area);
    // Area filters partition the set.
    const auto small = app::regions_with_area(regions, 0, 2);
    const auto large = app::regions_with_area(
        regions, 3, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(small.size() + large.size(), regions.size());
    // Histogram covers every region exactly once.
    const auto hist = app::area_histogram(regions, 8);
    std::size_t total = 0;
    for (std::size_t b : hist) total += b;
    EXPECT_EQ(total, regions.size());
  } else {
    EXPECT_FALSE(largest.has_value());
  }
  // Point cover: every region's bbox corner is covered by that region.
  for (const auto& r : regions) {
    const auto covering = app::regions_covering(
        regions, {r.bounds.row_min, r.bounds.col_min});
    EXPECT_FALSE(covering.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QueryConsistency, ::testing::Range(1, 13));

}  // namespace
}  // namespace wsn
