// Runtime system (Section 5): cell mapping, topology emulation protocol,
// leader binding, overlay routing.
#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <vector>

#include "emulation/cell_mapper.h"
#include "emulation/emulation_protocol.h"
#include "emulation/leader_binding.h"
#include "emulation/overlay_network.h"
#include "emulation/physical_stack.h"
#include "net/deployment.h"
#include "obs/profiler.h"
#include "sim/simulator.h"

namespace wsn::emulation {
namespace {

/// Dense, cell-covering deployment fixture shared by the protocol tests.
struct Deployment {
  Deployment(std::size_t grid_side, std::size_t nodes, double range,
             std::uint64_t seed)
      : terrain(net::square_terrain(static_cast<double>(grid_side))),
        sim(seed) {
    net::DeploymentConfig cfg;
    cfg.kind = net::DeploymentKind::kOnePerCellPlus;
    cfg.node_count = nodes;
    cfg.terrain = terrain;
    cfg.cells_per_side = grid_side;
    positions = net::deploy(cfg, sim.rng());
    graph = std::make_unique<net::NetworkGraph>(positions, range);
    mapper = std::make_unique<CellMapper>(*graph, terrain, grid_side);
    ledger = std::make_unique<net::EnergyLedger>(graph->node_count());
    link = std::make_unique<net::LinkLayer>(
        sim, *graph, net::RadioModel{range, 1.0, 1.0, 1.0}, net::CpuModel{},
        *ledger);
  }

  net::Rect terrain;
  sim::Simulator sim;
  std::vector<net::Point> positions;
  std::unique_ptr<net::NetworkGraph> graph;
  std::unique_ptr<CellMapper> mapper;
  std::unique_ptr<net::EnergyLedger> ledger;
  std::unique_ptr<net::LinkLayer> link;
};

TEST(CellMapper, AssignsNodesToCells) {
  Deployment d(4, 64, 1.5, 42);
  EXPECT_TRUE(d.mapper->all_cells_occupied());
  for (net::NodeId i = 0; i < d.graph->node_count(); ++i) {
    const core::GridCoord cell = d.mapper->cell_of(i);
    EXPECT_TRUE(d.mapper->cell_rect(cell).contains(d.graph->position(i)));
    const auto members = d.mapper->members(cell);
    EXPECT_NE(std::ranges::find(members, i), members.end());
  }
}

TEST(CellMapper, CellCentersAndDistances) {
  Deployment d(4, 64, 1.5, 43);
  EXPECT_EQ(d.mapper->cell_center({0, 0}).x, 0.5);
  EXPECT_EQ(d.mapper->cell_center({0, 0}).y, 0.5);
  EXPECT_EQ(d.mapper->cell_center({3, 1}).x, 1.5);
  EXPECT_EQ(d.mapper->cell_center({3, 1}).y, 3.5);
  for (net::NodeId i = 0; i < 10; ++i) {
    EXPECT_GE(d.mapper->distance_to_center(i), 0.0);
    EXPECT_LE(d.mapper->distance_to_center(i), std::sqrt(0.5) + 1e-9);
  }
}

TEST(CellMapper, DiagnosticsReportGaps) {
  // Two nodes in one corner of a 2x2 partition: three cells empty.
  net::NetworkGraph graph({{0.1, 0.1}, {0.2, 0.2}}, 1.0);
  CellMapper mapper(graph, net::square_terrain(2.0), 2);
  EXPECT_FALSE(mapper.all_cells_occupied());
  EXPECT_EQ(mapper.unoccupied_cells().size(), 3u);
}

TEST(CellMapper, DisconnectedCellsReportOnlyFracturedCells) {
  // 3x3 partition of a 3.0 terrain (cell side 1.0), radio range 0.3.
  // Cell (0,0): two nodes within range — connected. Cell (1,1): two nodes
  // in opposite corners of the cell, out of range — fractured. Cell
  // (2,2): a singleton, trivially connected. Six cells stay empty, and
  // empty is reported as unoccupied, never as disconnected.
  net::NetworkGraph graph(
      {{0.1, 0.1}, {0.2, 0.2}, {1.1, 1.1}, {1.9, 1.9}, {2.5, 2.5}}, 0.3);
  CellMapper mapper(graph, net::square_terrain(3.0), 3);
  EXPECT_FALSE(mapper.all_cells_occupied());
  EXPECT_FALSE(mapper.all_cells_connected());
  EXPECT_EQ(mapper.unoccupied_cells().size(), 6u);
  const auto fractured = mapper.disconnected_cells();
  ASSERT_EQ(fractured.size(), 1u);
  EXPECT_EQ(fractured[0], (core::GridCoord{1, 1}));
  for (const core::GridCoord& cell : mapper.unoccupied_cells()) {
    EXPECT_TRUE(mapper.members(cell).empty());
  }
}

TEST(CellMapper, BoundaryPositionsClampIntoTheGrid) {
  // Nodes exactly on the terrain edge (and one past it, from measurement
  // noise) must land in the nearest real cell, not index out of range.
  net::NetworkGraph graph({{0.0, 0.0}, {2.0, 2.0}, {2.3, 1.0}}, 1.5);
  CellMapper mapper(graph, net::square_terrain(2.0), 2);
  EXPECT_EQ(mapper.cell_of(0), (core::GridCoord{0, 0}));
  EXPECT_EQ(mapper.cell_of(1), (core::GridCoord{1, 1}));
  EXPECT_EQ(mapper.cell_of(2), (core::GridCoord{1, 1}));
  EXPECT_TRUE(mapper.disconnected_cells().empty());
  EXPECT_EQ(mapper.unoccupied_cells().size(), 2u);
}

TEST(AdjacentDirection, FourNeighbors) {
  EXPECT_EQ(adjacent_direction({1, 1}, {0, 1}), core::Direction::kNorth);
  EXPECT_EQ(adjacent_direction({1, 1}, {1, 2}), core::Direction::kEast);
  EXPECT_EQ(adjacent_direction({1, 1}, {2, 1}), core::Direction::kSouth);
  EXPECT_EQ(adjacent_direction({1, 1}, {1, 0}), core::Direction::kWest);
  EXPECT_FALSE(adjacent_direction({1, 1}, {2, 2}).has_value());
  EXPECT_FALSE(adjacent_direction({1, 1}, {1, 1}).has_value());
}

TEST(TopologyEmulation, TablesRouteToAdjacentCells) {
  Deployment d(4, 128, 1.2, 7);
  ASSERT_TRUE(d.mapper->all_cells_occupied());
  ASSERT_TRUE(d.mapper->all_cells_connected());
  const EmulationResult result = run_topology_emulation(*d.link, *d.mapper);
  EXPECT_TRUE(result.boundary_audit_passed);
  EXPECT_GT(result.broadcasts, 0u);

  // Every node must end with a chain leading into each geographically
  // adjacent cell.
  core::GridTopology grid(4);
  for (net::NodeId i = 0; i < d.graph->node_count(); ++i) {
    const core::GridCoord cell = d.mapper->cell_of(i);
    for (core::Direction dir : core::kAllDirections) {
      const auto nbr = grid.neighbor(cell, dir);
      if (!nbr) {
        continue;  // terrain edge: entry may legitimately be null
      }
      const auto chain = follow_chain(*d.mapper, result.tables, i, dir);
      ASSERT_FALSE(chain.empty())
          << "node " << i << " has no route " << core::to_string(dir);
      // The chain ends in the adjacent cell and crosses exactly one boundary.
      EXPECT_EQ(d.mapper->cell_of(chain.back()), *nbr);
      for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
        EXPECT_EQ(d.mapper->cell_of(chain[k]), cell);
        EXPECT_TRUE(d.graph->has_edge(chain[k], chain[k + 1]));
      }
    }
  }
}

TEST(TopologyEmulation, ForeignTablesAreSuppressed) {
  Deployment d(4, 96, 1.2, 8);
  const EmulationResult result = run_topology_emulation(*d.link, *d.mapper);
  // Suppressions happen whenever a broadcast crosses a boundary; in a dense
  // deployment there must be some.
  EXPECT_GT(result.suppressed, 0u);
  EXPECT_LE(result.suppressed, result.deliveries);
}

TEST(TopologyEmulation, JitterStillConverges) {
  Deployment d(4, 96, 1.3, 9);
  const EmulationResult r = run_topology_emulation(*d.link, *d.mapper, 2.0);
  core::GridTopology grid(4);
  for (net::NodeId i = 0; i < d.graph->node_count(); ++i) {
    for (core::Direction dir : core::kAllDirections) {
      if (grid.neighbor(d.mapper->cell_of(i), dir)) {
        EXPECT_FALSE(follow_chain(*d.mapper, r.tables, i, dir).empty());
      }
    }
  }
}

TEST(LeaderBinding, ElectsNodeClosestToCenter) {
  Deployment d(4, 128, 1.2, 10);
  ASSERT_TRUE(d.mapper->all_cells_connected());
  const BindingResult result = run_leader_binding(*d.link, *d.mapper);
  EXPECT_TRUE(result.unique_leaders);
  const auto oracle =
      oracle_leaders(*d.mapper, BindingMetric::kDistanceToCenter, *d.ledger);
  EXPECT_EQ(result.leaders, oracle);
}

TEST(LeaderBinding, ResidualEnergyMetricElectsFullestNode) {
  Deployment d(2, 32, 1.5, 11);
  // Bias: spend energy on some nodes first.
  net::EnergyLedger ledger(d.graph->node_count(), 100.0);
  for (net::NodeId i = 0; i < d.graph->node_count(); i += 2) {
    ledger.charge(i, net::EnergyUse::kCompute, static_cast<double>(i));
  }
  net::LinkLayer link(d.sim, *d.graph, net::RadioModel{1.5, 1.0, 1.0, 1.0},
                      net::CpuModel{}, ledger);
  // The oracle must see the residual energies at election start: the
  // election's own broadcasts drain the same ledger while running.
  const auto oracle =
      oracle_leaders(*d.mapper, BindingMetric::kResidualEnergy, ledger);
  const BindingResult result =
      run_leader_binding(link, *d.mapper, BindingMetric::kResidualEnergy);
  EXPECT_TRUE(result.unique_leaders);
  EXPECT_EQ(result.leaders, oracle);
}

TEST(LeaderBinding, EveryCellGetsExactlyOneLeader) {
  Deployment d(8, 512, 1.2, 12);
  ASSERT_TRUE(d.mapper->all_cells_occupied());
  ASSERT_TRUE(d.mapper->all_cells_connected());
  const BindingResult result = run_leader_binding(*d.link, *d.mapper);
  EXPECT_TRUE(result.unique_leaders);
  for (const net::NodeId leader : result.leaders) {
    EXPECT_NE(leader, net::kNoNode);
  }
}

class OverlayTest : public ::testing::Test {
 protected:
  OverlayTest() {
    EXPECT_TRUE(stack_.mapper->all_cells_occupied());
    EXPECT_TRUE(stack_.mapper->all_cells_connected());
  }

  PhysicalStack stack_{4, 160, 1.2, 21};
  OverlayNetwork* overlay_ = stack_.overlay.get();
};

TEST_F(OverlayTest, DeliversBetweenBoundLeaders) {
  int got = 0;
  core::GridCoord from{-1, -1};
  overlay_->set_receiver({3, 3}, [&](const core::VirtualMessage& m) {
    ++got;
    from = m.sender;
  });
  overlay_->send({0, 0}, {3, 3}, 17, 1.0);
  stack_.sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(from, (core::GridCoord{0, 0}));
  EXPECT_EQ(overlay_->failed_sends(), 0u);
  EXPECT_GE(overlay_->physical_hops(), core::manhattan({0, 0}, {3, 3}));
}

TEST_F(OverlayTest, SelfSendDeliversLocally) {
  int got = 0;
  overlay_->set_receiver({1, 2}, [&](const core::VirtualMessage&) { ++got; });
  overlay_->send({1, 2}, {1, 2}, 0, 1.0);
  stack_.sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(OverlayTest, AllPairsRoutable) {
  core::GridTopology grid(4);
  int delivered = 0;
  for (const core::GridCoord& to : grid.all_coords()) {
    overlay_->set_receiver(to,
                           [&](const core::VirtualMessage&) { ++delivered; });
  }
  int sent = 0;
  for (const core::GridCoord& from : grid.all_coords()) {
    for (const core::GridCoord& to : grid.all_coords()) {
      if (from == to) continue;
      overlay_->send(from, to, 0, 1.0);
      ++sent;
    }
  }
  stack_.sim.run();
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(overlay_->failed_sends(), 0u);
  // Stretch is finite and at least 1.
  EXPECT_GE(overlay_->physical_hops(), overlay_->virtual_hops());
}

TEST_F(OverlayTest, RouteStateIsInertWithoutMembership) {
  // Perimeter (right-hand wall) routing only engages in membership mode.
  // With the default stack the RouteState-threaded entry point must pick
  // the exact hop classic dimension-order routing picks — never touching
  // the frame's detour bytes — so default-mode traces stay byte-identical.
  core::GridTopology grid(4);
  for (const core::GridCoord& from : grid.all_coords()) {
    const net::NodeId at = overlay_->bound_node(from);
    for (const core::GridCoord& to : grid.all_coords()) {
      if (from == to) continue;
      OverlayNetwork::RouteState rs;
      const net::NodeId with_state = overlay_->route_next_hop(at, to,
                                                              net::kNoNode,
                                                              &rs);
      const net::NodeId classic = overlay_->route_next_hop(at, to);
      EXPECT_EQ(with_state, classic);
      EXPECT_EQ(rs.detour, 0);
      EXPECT_EQ(rs.entry_dist, 0);
      EXPECT_EQ(rs.ttl, 0);
    }
  }
}

TEST_F(OverlayTest, EnergyLandsInPhysicalLedger) {
  overlay_->set_receiver({0, 3}, [](const core::VirtualMessage&) {});
  const double before = stack_.ledger->total();
  overlay_->send({0, 0}, {0, 3}, 0, 2.0);
  stack_.sim.run();
  const double after = stack_.ledger->total();
  // Each physical hop moves 2 units: tx+rx = 4 energy per hop.
  EXPECT_GE(after - before, 4.0 * 3);
}

TEST_F(OverlayTest, ComputeChargesBoundNode) {
  const net::NodeId bound = overlay_->bound_node({2, 2});
  const double before = stack_.ledger->spent(bound);
  overlay_->compute({2, 2}, 3.0);
  EXPECT_DOUBLE_EQ(stack_.ledger->spent(bound) - before, 3.0);
}

TEST(OverlayArq, SendAllocatesTheSameAtEveryRouteLength) {
  // A send boxes its overlay packet once, and every hop moves that box on:
  // the int payload sits in std::any's in-place buffer, and a warm ARQ hop
  // allocates nothing. So a send's allocations do not grow with its route.
  PhysicalStack stack(8, 256, 1.2, 3);
  stack.enable_arq();
  OverlayNetwork& overlay = *stack.overlay;
  const core::GridCoord from{0, 0};
  const core::GridCoord targets[] = {{0, 1}, {1, 2}, {3, 4}, {7, 7}};
  int sum = 0;
  for (const core::GridCoord& to : targets) {
    overlay.set_receiver(to, [&sum](const core::VirtualMessage& m) {
      sum += std::any_cast<int>(m.payload);
    });
  }
  std::vector<std::uint64_t> hops;
  std::vector<std::uint64_t> allocs;
  for (const core::GridCoord& to : targets) {
    overlay.send(from, to, 1, 1.0);  // warm-up: the route's ARQ records
    stack.sim.run();
    const std::uint64_t hops_before = overlay.physical_hops();
    const std::uint64_t allocs_before = obs::global_alloc_stats().count;
    overlay.send(from, to, 1, 1.0);
    stack.sim.run();
    allocs.push_back(obs::global_alloc_stats().count - allocs_before);
    hops.push_back(overlay.physical_hops() - hops_before);
  }
  EXPECT_EQ(sum, 8);
  EXPECT_EQ(overlay.failed_sends(), 0u);
  EXPECT_EQ(stack.arq->counters().get("arq.retransmit"), 0u);
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_GT(hops[i], hops[i - 1]);
    EXPECT_EQ(allocs[i], allocs[0]) << hops[i] << " physical hops";
  }
  EXPECT_LE(allocs[0], 1u) << hops[0] << " physical hops";
}

}  // namespace
}  // namespace wsn::emulation
