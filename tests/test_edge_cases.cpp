// Edge cases and failure-injection behaviors across modules.
#include <gtest/gtest.h>

#include "app/field.h"
#include "app/labeling.h"
#include "app/topographic.h"
#include "core/virtual_network.h"
#include "emulation/overlay_network.h"
#include "emulation/physical_stack.h"
#include "net/deployment.h"

namespace wsn {
namespace {

TEST(EdgeCases, GridBoundsMergeWithEmpty) {
  app::GridBounds empty;
  app::GridBounds some;
  some.expand({2, 3});
  some.expand({5, 1});
  app::GridBounds merged = empty;
  merged.merge(some);
  EXPECT_EQ(merged, some);
  app::GridBounds merged2 = some;
  merged2.merge(empty);
  EXPECT_EQ(merged2, some);
}

TEST(EdgeCases, DeploymentZeroNodes) {
  sim::Rng rng(1);
  const auto pts = net::deploy(
      {net::DeploymentKind::kUniformRandom, 0, net::square_terrain(10.0)}, rng);
  EXPECT_TRUE(pts.empty());
}

TEST(EdgeCases, DeploymentDegenerateTerrainRejected) {
  sim::Rng rng(2);
  net::DeploymentConfig cfg;
  cfg.node_count = 10;
  cfg.terrain = net::Rect{0, 0, 0, 5};  // zero width
  EXPECT_THROW(net::deploy(cfg, rng), std::invalid_argument);
}

TEST(EdgeCases, ClusteredWithZeroClustersStillWorks) {
  sim::Rng rng(3);
  net::DeploymentConfig cfg;
  cfg.kind = net::DeploymentKind::kClustered;
  cfg.node_count = 50;
  cfg.terrain = net::square_terrain(10.0);
  cfg.cluster_count = 0;  // clamped to 1 internally
  const auto pts = net::deploy(cfg, rng);
  EXPECT_EQ(pts.size(), 50u);
}

TEST(EdgeCases, EmptyNetworkGraph) {
  net::NetworkGraph g({}, 1.0);
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(EdgeCases, SingleNodeGraph) {
  net::NetworkGraph g({{1.0, 1.0}}, 1.0);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.shortest_path(0, 0).size(), 1u);
}

TEST(EdgeCases, ZeroRangeGraphRejected) {
  EXPECT_THROW(net::NetworkGraph({{0, 0}}, 0.0), std::invalid_argument);
}

TEST(EdgeCases, TopographicQueryOnMismatchedSidesThrows) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  const app::FeatureGrid grid(8);
  EXPECT_THROW(app::run_topographic_query(vnet, grid), std::invalid_argument);
}

TEST(EdgeCases, OverlayQueryFailsLoudlyUnderTotalLoss) {
  // With every packet dropped the round cannot complete: the runner throws
  // instead of silently returning a stale or partial result.
  emulation::PhysicalStack stack(2, 40, 1.5, 9);
  ASSERT_TRUE(stack.healthy());
  stack.link->set_loss_probability(1.0);
  sim::Rng rng(9);
  const app::FeatureGrid grid = app::random_grid(2, 0.5, rng);
  EXPECT_THROW(app::run_topographic_query(*stack.overlay, grid),
               std::runtime_error);
}

TEST(EdgeCases, TwoByTwoFullPipeline) {
  // The smallest nontrivial grid end to end on the physical stack.
  emulation::PhysicalStack stack(2, 24, 1.5, 4);
  ASSERT_TRUE(stack.healthy());
  app::FeatureGrid grid(2);
  grid.set({0, 1}, true);
  grid.set({1, 1}, true);
  const auto outcome = app::run_topographic_query(*stack.overlay, grid);
  ASSERT_EQ(outcome.regions.size(), 1u);
  EXPECT_EQ(outcome.regions[0].area, 2u);
}

TEST(EdgeCases, CostModelZeroEnergyVariant) {
  // Free computation (energy 0) is legal; only negative values are not.
  core::CostModel cost;
  cost.compute_energy_per_op = 0.0;
  cost.validate();
  cost.tx_energy_per_unit = -1.0;
  EXPECT_THROW(cost.validate(), std::invalid_argument);
}

TEST(EdgeCases, VirtualNetworkZeroSizedMessage) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  sim::Time arrival = -1;
  vnet.set_receiver({0, 3}, [&](const core::VirtualMessage&) {
    arrival = sim.now();
  });
  vnet.send({0, 0}, {0, 3}, 0, 0.0);  // zero units: free and instantaneous
  sim.run();
  EXPECT_DOUBLE_EQ(arrival, 0.0);
  EXPECT_DOUBLE_EQ(vnet.ledger().total(), 0.0);
}

TEST(EdgeCases, LabelingOneByOne) {
  app::FeatureGrid g(1);
  EXPECT_EQ(app::label_regions(g).region_count(), 0u);
  g.set({0, 0}, true);
  const auto l = app::label_regions(g);
  ASSERT_EQ(l.region_count(), 1u);
  EXPECT_EQ(l.regions[0].area, 1u);
}

TEST(EdgeCases, OverlayWithJitteredProtocols) {
  // Protocols started with jitter still produce a working overlay.
  sim::Simulator sim(12);
  const net::Rect terrain = net::square_terrain(4.0);
  net::DeploymentConfig cfg;
  cfg.kind = net::DeploymentKind::kOnePerCellPlus;
  cfg.node_count = 160;
  cfg.terrain = terrain;
  cfg.cells_per_side = 4;
  auto positions = net::deploy(cfg, sim.rng());
  net::NetworkGraph graph(std::move(positions), 1.3);
  net::EnergyLedger ledger(graph.node_count());
  net::LinkLayer link(sim, graph, net::RadioModel{1.3, 1.0, 1.0, 1.0},
                      net::CpuModel{}, ledger);
  emulation::CellMapper mapper(graph, terrain, 4);
  ASSERT_TRUE(mapper.all_cells_occupied());
  ASSERT_TRUE(mapper.all_cells_connected());
  auto emu = emulation::run_topology_emulation(link, mapper, /*jitter=*/3.0);
  auto bind = emulation::run_leader_binding(
      link, mapper, emulation::BindingMetric::kDistanceToCenter, 3.0);
  ASSERT_TRUE(bind.unique_leaders);
  emulation::OverlayNetwork overlay(link, mapper, std::move(emu),
                                    std::move(bind));
  sim::Rng rng(12);
  const app::FeatureGrid grid = app::random_grid(4, 0.5, rng);
  const auto outcome = app::run_topographic_query(overlay, grid);
  EXPECT_EQ(outcome.regions.size(), app::label_regions(grid).region_count());
}

}  // namespace
}  // namespace wsn
