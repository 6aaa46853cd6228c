// Parameterized protocol sweeps: topology emulation, leader binding, and
// overlay routing checked across deployment densities, grid sizes, radio
// ranges, and seeds (TEST_P property coverage for the Section 5 runtime).
#include <gtest/gtest.h>

#include <tuple>

#include "app/field.h"
#include "app/labeling.h"
#include "app/topographic.h"
#include "emulation/physical_stack.h"

namespace wsn {
namespace {

// (grid side, nodes per cell, seed)
using SweepParam = std::tuple<std::size_t, std::size_t, int>;

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  ProtocolSweep()
      : stack_(std::get<0>(GetParam()),
               std::get<0>(GetParam()) * std::get<0>(GetParam()) *
                   std::get<1>(GetParam()),
               1.35,
               static_cast<std::uint64_t>(std::get<2>(GetParam())) * 131 +
                   std::get<0>(GetParam())) {}

  emulation::PhysicalStack stack_;
};

TEST_P(ProtocolSweep, EmulationTablesCompleteAndAcyclic) {
  if (!stack_.healthy()) GTEST_SKIP() << "deployment precondition failed";
  const auto grid_side = std::get<0>(GetParam());
  core::GridTopology grid(grid_side);
  for (net::NodeId i = 0; i < stack_.graph->node_count(); ++i) {
    const core::GridCoord cell = stack_.mapper->cell_of(i);
    for (core::Direction d : core::kAllDirections) {
      const auto nbr = grid.neighbor(cell, d);
      if (!nbr) continue;
      const auto chain = emulation::follow_chain(
          *stack_.mapper, stack_.emulation_result.tables, i, d);
      ASSERT_FALSE(chain.empty());
      EXPECT_EQ(stack_.mapper->cell_of(chain.back()), *nbr);
    }
  }
}

TEST_P(ProtocolSweep, BindingElectsOracleWinnerEverywhere) {
  if (!stack_.healthy()) GTEST_SKIP() << "deployment precondition failed";
  const auto oracle = emulation::oracle_leaders(
      *stack_.mapper, emulation::BindingMetric::kDistanceToCenter,
      *stack_.ledger);
  EXPECT_EQ(stack_.binding_result.leaders, oracle);
}

TEST_P(ProtocolSweep, OverlayQueryMatchesReference) {
  if (!stack_.healthy()) GTEST_SKIP() << "deployment precondition failed";
  const auto grid_side = std::get<0>(GetParam());
  sim::Rng rng(static_cast<std::uint64_t>(std::get<2>(GetParam())));
  const app::FeatureGrid field = app::random_grid(grid_side, 0.5, rng);
  const auto outcome = app::run_topographic_query(*stack_.overlay, field);
  EXPECT_EQ(outcome.regions.size(), app::label_regions(field).region_count());
  EXPECT_EQ(stack_.overlay->failed_sends(), 0u);
  EXPECT_GE(stack_.overlay->physical_hops(), stack_.overlay->virtual_hops());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolSweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 8),
                       ::testing::Values<std::size_t>(8, 16),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Distance-independent packet loss: the emulation protocol remains safe and
// the boundary audit holds under any loss rate.
// ---------------------------------------------------------------------------
class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, EmulationSafeUnderLoss) {
  sim::Simulator sim(11);
  const net::Rect terrain = net::square_terrain(4.0);
  net::DeploymentConfig cfg;
  cfg.kind = net::DeploymentKind::kOnePerCellPlus;
  cfg.node_count = 200;
  cfg.terrain = terrain;
  cfg.cells_per_side = 4;
  auto positions = net::deploy(cfg, sim.rng());
  net::NetworkGraph graph(std::move(positions), 1.35);
  net::EnergyLedger ledger(graph.node_count());
  net::LinkLayer link(sim, graph, net::RadioModel{1.35, 1.0, 1.0, 1.0},
                      net::CpuModel{}, ledger);
  link.set_loss_probability(GetParam());
  emulation::CellMapper mapper(graph, terrain, 4);
  const auto result = emulation::run_topology_emulation(link, mapper);
  EXPECT_TRUE(result.boundary_audit_passed);
  // Whatever entries exist must still point at same- or adjacent-cell
  // neighbors.
  for (net::NodeId i = 0; i < graph.node_count(); ++i) {
    for (core::Direction d : core::kAllDirections) {
      const net::NodeId next = result.tables[i][d];
      if (next == net::kNoNode) continue;
      EXPECT_TRUE(graph.has_edge(i, next));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LossSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6, 0.9));

}  // namespace
}  // namespace wsn
