// Geographic regions, logical naming, and the tree virtual topology for
// non-uniform deployments.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/primitives.h"
#include "core/regions.h"
#include "core/virtual_network.h"
#include "emulation/tree_overlay.h"
#include "net/deployment.h"

namespace wsn {
namespace {

TEST(Regions, RectangleMembership) {
  const auto region = core::GeographicRegion::rectangle(1, 2, 3, 4);
  EXPECT_TRUE(region.contains({1, 2}));
  EXPECT_TRUE(region.contains({3, 4}));
  EXPECT_TRUE(region.contains({2, 3}));
  EXPECT_FALSE(region.contains({0, 2}));
  EXPECT_FALSE(region.contains({1, 5}));
  core::GridTopology grid(8);
  EXPECT_EQ(region.members(grid).size(), 3u * 3u);
}

TEST(Regions, DiskMembership) {
  const auto region = core::GeographicRegion::disk({4, 4}, 2);
  core::GridTopology grid(9);
  const auto members = region.members(grid);
  // Manhattan ball of radius 2: 1 + 4 + 8 = 13 cells.
  EXPECT_EQ(members.size(), 13u);
  for (const auto& m : members) {
    EXPECT_LE(core::manhattan(m, {4, 4}), 2u);
  }
}

TEST(Regions, BlockMatchesGroupHierarchy) {
  core::GridTopology grid(8);
  core::GroupHierarchy groups(grid);
  const auto region = core::GeographicRegion::block({5, 6}, 2);
  const auto expected = groups.members({5, 6}, 2);
  const auto got = region.members(grid);
  EXPECT_EQ(got, expected);
}

TEST(Regions, SetAlgebra) {
  core::GridTopology grid(8);
  const auto a = core::GeographicRegion::rectangle(0, 0, 3, 3);
  const auto b = core::GeographicRegion::rectangle(2, 2, 5, 5);
  EXPECT_EQ(a.unite(b).members(grid).size(), 16u + 16u - 4u);
  EXPECT_EQ(a.intersect(b).members(grid).size(), 4u);
  EXPECT_EQ(a.subtract(b).members(grid).size(), 12u);
}

TEST(Regions, CollectiveOverRegion) {
  // Sum readings over a disk using the generic group primitives - the
  // "all operations take place on regions" pattern of the UW-API the paper
  // relates to.
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  const auto region = core::GeographicRegion::disk({4, 4}, 2);
  const auto members = region.members(vnet.grid());
  std::vector<double> values(members.size(), 2.0);
  double sum = 0;
  core::group_reduce_deadline(
      vnet, members, {4, 4}, values, core::ReduceOp::kSum, 1.0,
      core::kNoDeadline, [&](const core::PartialResult& r) { sum = r.value; });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 2.0 * static_cast<double>(members.size()));
}

TEST(Naming, BindResolveUnbind) {
  core::NamingService names(core::GridTopology(8));
  EXPECT_FALSE(names.resolve("fire-watch").has_value());
  names.bind("fire-watch", std::vector<core::GridCoord>{{0, 0}, {0, 1}});
  const auto resolved = names.resolve("fire-watch");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->size(), 2u);
  EXPECT_TRUE(names.unbind("fire-watch"));
  EXPECT_FALSE(names.unbind("fire-watch"));
  EXPECT_FALSE(names.resolve("fire-watch").has_value());
}

TEST(Naming, DynamicRegionBindingFollowsPredicate) {
  core::NamingService names(core::GridTopology(8));
  // Membership determined at run time through a mutable threshold.
  auto threshold = std::make_shared<std::int32_t>(2);
  names.bind("hot-rows",
             core::GeographicRegion([threshold](const core::GridCoord& c) {
               return c.row < *threshold;
             }));
  EXPECT_EQ(names.resolve("hot-rows")->size(), 16u);
  *threshold = 4;
  EXPECT_EQ(names.resolve("hot-rows")->size(), 32u);
}

TEST(Naming, RebindReplaces) {
  core::NamingService names(core::GridTopology(4));
  names.bind("a", std::vector<core::GridCoord>{{0, 0}});
  names.bind("a", std::vector<core::GridCoord>{{1, 1}, {2, 2}});
  EXPECT_EQ(names.resolve("a")->size(), 2u);
  EXPECT_EQ(names.names(), std::vector<std::string>{"a"});
}

// ---------------------------------------------------------------------------
// Tree overlay on clustered (non-uniform) deployments.
// ---------------------------------------------------------------------------

struct ClusteredStack {
  ClusteredStack(std::size_t grid_side, std::size_t nodes, std::uint64_t seed)
      : sim(seed) {
    const net::Rect terrain =
        net::square_terrain(static_cast<double>(grid_side));
    net::DeploymentConfig cfg;
    cfg.kind = net::DeploymentKind::kClustered;
    cfg.node_count = nodes;
    cfg.terrain = terrain;
    cfg.cluster_count = 3;
    cfg.cluster_spread = 0.10;
    auto positions = net::deploy(cfg, sim.rng());
    graph = std::make_unique<net::NetworkGraph>(std::move(positions), 2.2);
    mapper = std::make_unique<emulation::CellMapper>(*graph, terrain, grid_side);
    ledger = std::make_unique<net::EnergyLedger>(graph->node_count());
    link = std::make_unique<net::LinkLayer>(
        sim, *graph, net::RadioModel{2.2, 1.0, 1.0, 1.0}, net::CpuModel{},
        *ledger);
  }

  sim::Simulator sim;
  std::unique_ptr<net::NetworkGraph> graph;
  std::unique_ptr<emulation::CellMapper> mapper;
  std::unique_ptr<net::EnergyLedger> ledger;
  std::unique_ptr<net::LinkLayer> link;
};

TEST(TreeOverlay, ClusteredDeploymentLeavesCellsEmptyButTreeSpans) {
  ClusteredStack stack(8, 200, 5);
  ASSERT_TRUE(stack.graph->connected());
  // The very premise: clustered deployments break the grid precondition.
  EXPECT_FALSE(stack.mapper->all_cells_occupied());

  const auto binding = emulation::run_leader_binding(*stack.link, *stack.mapper);
  const auto tree = emulation::build_tree_overlay(*stack.mapper, binding);
  // Every occupied cell is in the tree exactly once.
  std::size_t occupied = 0;
  core::GridTopology grid(8);
  for (const auto& cell : grid.all_coords()) {
    if (!stack.mapper->members(cell).empty()) ++occupied;
  }
  EXPECT_EQ(tree.size(), occupied);
  // Parent links converge to the root.
  for (std::size_t i = 0; i < tree.size(); ++i) {
    std::size_t cur = i;
    std::size_t steps = 0;
    while (cur != 0) {
      cur = tree.parent[cur];
      ASSERT_LT(++steps, tree.size() + 1);
    }
  }
  EXPECT_EQ(tree.depth[0], 0u);
}

TEST(TreeOverlay, TreeSumMatchesDirectSum) {
  ClusteredStack stack(8, 200, 7);
  ASSERT_TRUE(stack.graph->connected());
  const auto binding = emulation::run_leader_binding(*stack.link, *stack.mapper);
  const auto tree = emulation::build_tree_overlay(*stack.mapper, binding);

  std::vector<double> values;
  double expected = 0;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const double v = static_cast<double>(i % 7) + 0.5;
    values.push_back(v);
    expected += v;
  }
  const auto result = emulation::run_tree_sum(*stack.link, tree, values);
  EXPECT_DOUBLE_EQ(result.value, expected);
  EXPECT_EQ(result.messages, tree.size() - 1);
  EXPECT_GE(result.physical_hops, result.messages);
  EXPECT_GT(result.finished, 0.0);
}

TEST(TreeOverlay, SingleOccupiedCellDegenerates) {
  // All nodes in one corner cell.
  sim::Simulator sim(1);
  std::vector<net::Point> positions{{0.2, 0.2}, {0.4, 0.4}, {0.3, 0.2}};
  net::NetworkGraph graph(positions, 1.0);
  emulation::CellMapper mapper(graph, net::square_terrain(4.0), 4);
  net::EnergyLedger ledger(graph.node_count());
  net::LinkLayer link(sim, graph, net::RadioModel{1.0, 1.0, 1.0, 1.0},
                      net::CpuModel{}, ledger);
  const auto binding = emulation::run_leader_binding(link, mapper);
  const auto tree = emulation::build_tree_overlay(mapper, binding);
  EXPECT_EQ(tree.size(), 1u);
  const std::vector<double> values{42.0};
  const auto result = emulation::run_tree_sum(link, tree, values);
  EXPECT_DOUBLE_EQ(result.value, 42.0);
  EXPECT_EQ(result.messages, 0u);
}

TEST(TreeOverlay, RootHintSelectsNearestOccupiedCell) {
  ClusteredStack stack(8, 150, 11);
  const auto binding = emulation::run_leader_binding(*stack.link, *stack.mapper);
  const auto tree =
      emulation::build_tree_overlay(*stack.mapper, binding, {7, 7});
  // The root is the occupied cell closest to (7,7).
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  core::GridTopology grid(8);
  for (const auto& cell : grid.all_coords()) {
    if (!stack.mapper->members(cell).empty()) {
      best = std::min(best, core::manhattan(cell, {7, 7}));
    }
  }
  EXPECT_EQ(core::manhattan(tree.cells[0], {7, 7}), best);
}

}  // namespace
}  // namespace wsn
