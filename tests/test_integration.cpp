// End-to-end integration: the same synthesized program produces identical
// results on the virtual grid and on the emulated physical network, and the
// analytical predictions match the virtual-layer measurements exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "analysis/analytical.h"
#include "app/centralized.h"
#include "app/dnc.h"
#include "app/field.h"
#include "app/topographic.h"
#include "core/virtual_network.h"
#include "emulation/physical_stack.h"
#include "obs/profiler.h"
#include "synthesis/program.h"

namespace wsn {
namespace {

std::vector<std::uint64_t> sorted_areas(
    const std::vector<app::RegionInfo>& regions) {
  std::vector<std::uint64_t> areas;
  for (const app::RegionInfo& r : regions) areas.push_back(r.area);
  std::ranges::sort(areas);
  return areas;
}

TEST(Integration, VirtualRunMatchesReferenceLabeling) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    sim::Rng field_rng(seed);
    const app::FeatureGrid grid = app::random_grid(16, 0.45, field_rng);
    sim::Simulator sim(seed);
    core::VirtualNetwork vnet(sim, core::GridTopology(16),
                              core::uniform_cost_model());
    const auto outcome = app::run_topographic_query(vnet, grid);
    const app::Labeling reference = app::label_regions(grid);
    EXPECT_EQ(outcome.regions.size(), reference.region_count());
    EXPECT_EQ(sorted_areas(outcome.regions),
              sorted_areas(app::dnc_label(grid)));
  }
}

TEST(Integration, PhysicalRunMatchesVirtualResult) {
  sim::Rng field_rng(77);
  const app::FeatureGrid grid = app::random_grid(4, 0.5, field_rng);

  // Virtual layer.
  sim::Simulator vsim(5);
  core::VirtualNetwork vnet(vsim, core::GridTopology(4),
                            core::uniform_cost_model());
  const auto virtual_outcome = app::run_topographic_query(vnet, grid);

  // Physical layer.
  emulation::PhysicalStack phys(4, 160, 1.3, 5);
  const auto physical_outcome = app::run_topographic_query(*phys.overlay, grid);

  EXPECT_EQ(sorted_areas(virtual_outcome.regions),
            sorted_areas(physical_outcome.regions));
  EXPECT_EQ(virtual_outcome.round.messages_sent,
            physical_outcome.round.messages_sent);
  // The overlay pays at least the virtual hop count per message.
  EXPECT_GE(phys.overlay->physical_hops(), phys.overlay->virtual_hops());
  EXPECT_EQ(phys.overlay->failed_sends(), 0u);
}

TEST(Integration, AnalyticalPredictionMatchesVirtualMeasurementExactly) {
  for (std::size_t side : {2u, 4u, 8u, 16u}) {
    const app::FeatureGrid grid = app::full_grid(side);
    sim::Simulator sim(1);
    core::VirtualNetwork vnet(sim, core::GridTopology(side),
                              core::uniform_cost_model());
    const auto outcome = app::run_topographic_query(vnet, grid);
    const auto predicted =
        analysis::predict_quadtree(side, core::uniform_cost_model());
    EXPECT_EQ(outcome.round.messages_sent, predicted.messages);
    EXPECT_EQ(vnet.total_hops(), predicted.total_hops);
    EXPECT_DOUBLE_EQ(outcome.round.finished_at, predicted.latency);
    const auto report = vnet.ledger().report();
    EXPECT_DOUBLE_EQ(report.total, predicted.total_energy);
  }
}

TEST(Integration, CentralizedPredictionMatchesVirtualMeasurement) {
  for (std::size_t side : {4u, 8u}) {
    const app::FeatureGrid grid = app::checkerboard_grid(side);
    sim::Simulator sim(2);
    core::VirtualNetwork vnet(sim, core::GridTopology(side),
                              core::uniform_cost_model());
    const auto outcome = app::run_centralized_query(vnet, grid);
    const auto predicted =
        analysis::predict_centralized(side, core::uniform_cost_model());
    EXPECT_EQ(outcome.messages, predicted.messages);
    EXPECT_EQ(vnet.total_hops(), predicted.total_hops);
    EXPECT_DOUBLE_EQ(outcome.finished_at, predicted.latency);
    EXPECT_DOUBLE_EQ(vnet.ledger().report().total,
                     predicted.total_energy);
    // And it labels correctly.
    EXPECT_EQ(outcome.regions.size(), side * side / 2);
  }
}

TEST(Integration, CentralizedAndQuadtreeAgreeOnRegions) {
  sim::Rng field_rng(31);
  const app::FeatureGrid grid = app::random_grid(8, 0.4, field_rng);
  sim::Simulator sim_a(3);
  core::VirtualNetwork vnet_a(sim_a, core::GridTopology(8),
                              core::uniform_cost_model());
  const auto quadtree = app::run_topographic_query(vnet_a, grid);
  sim::Simulator sim_b(4);
  core::VirtualNetwork vnet_b(sim_b, core::GridTopology(8),
                              core::uniform_cost_model());
  const auto centralized = app::run_centralized_query(vnet_b, grid);
  EXPECT_EQ(sorted_areas(quadtree.regions), sorted_areas(centralized.regions));
}

TEST(Integration, QuadtreeBeatsCentralizedOnTotalEnergyAtScale) {
  // The design-flow trade-off of Section 2: in-network merging avoids
  // shipping every status across the grid.
  const std::size_t side = 16;
  const app::FeatureGrid grid = app::ring_grid(side);

  sim::Simulator sim_a(5);
  core::VirtualNetwork vnet_a(sim_a, core::GridTopology(side),
                              core::uniform_cost_model());
  app::run_topographic_query(vnet_a, grid);
  const double dnc_energy = vnet_a.ledger().total();

  sim::Simulator sim_b(6);
  core::VirtualNetwork vnet_b(sim_b, core::GridTopology(side),
                              core::uniform_cost_model());
  app::run_centralized_query(vnet_b, grid);
  const double central_energy = vnet_b.ledger().total();

  EXPECT_LT(dnc_energy, central_energy);
}

TEST(Integration, StretchIsModestOnDenseDeployments) {
  emulation::PhysicalStack phys(4, 240, 1.3, 11);
  sim::Rng field_rng(11);
  const app::FeatureGrid grid = app::random_grid(4, 0.5, field_rng);
  app::run_topographic_query(*phys.overlay, grid);
  const double stretch = static_cast<double>(phys.overlay->physical_hops()) /
                         static_cast<double>(phys.overlay->virtual_hops());
  EXPECT_GE(stretch, 1.0);
  EXPECT_LE(stretch, 6.0);  // dense cells keep detours short
}

TEST(Integration, ExfiltrationLandsOnRootLeader) {
  const app::FeatureGrid grid = app::full_grid(8);
  sim::Simulator sim(7);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  const auto outcome = app::run_topographic_query(vnet, grid);
  EXPECT_EQ(outcome.round.exfiltration_node, (core::GridCoord{0, 0}));
  EXPECT_EQ(outcome.regions.size(), 1u);
  EXPECT_EQ(outcome.regions[0].area, 64u);
}

TEST(Integration, EnergyConservationOnVirtualLayer) {
  // Ledger total must equal hops * (tx+rx) * units + compute charges when
  // all messages have unit size.
  const app::FeatureGrid grid = app::checkerboard_grid(8);
  sim::Simulator sim(8);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  const auto outcome = app::run_topographic_query(vnet, grid);
  const auto report = vnet.ledger().report();
  const double comm = static_cast<double>(vnet.total_hops()) * 2.0;
  EXPECT_DOUBLE_EQ(report.tx + report.rx, comm);
  const double sense = 64.0;
  const double merges = static_cast<double>(outcome.round.self_merges +
                                            outcome.round.remote_merges);
  EXPECT_DOUBLE_EQ(report.compute, sense + merges);
}

TEST(Integration, LossyPhysicalNetworkStillSetsUpTables) {
  // With packet loss the emulation protocol may need retries in a real
  // system; here we only assert the protocol remains safe (no crash, audit
  // holds) under loss, not that it converges fully.
  sim::Simulator sim(9);
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
  link.set_loss_probability(0.2);
  emulation::CellMapper mapper(graph, terrain, 4);
  const auto result = emulation::run_topology_emulation(link, mapper);
  EXPECT_TRUE(result.boundary_audit_passed);
}

TEST(Topographic, QueryAllocationsStayBounded) {
  // Summaries move through the program and merge in place with one
  // workspace per round, and blocks up to 4x4 hold their edges and open
  // regions in place, so a query allocates for its boxed payloads, its
  // messages and its larger blocks, not for copies of whole summaries
  // (copying them at every hook cost about 11,800 allocations here) or for
  // each leaf (about 2,500 with heap edges). The warm-up query sizes the
  // kernel's slots.
  const app::FeatureGrid grid =
      app::threshold_sample(app::value_noise_field(7), 16, 0.5);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(16),
                            core::uniform_cost_model());
  app::run_topographic_query(vnet, grid);
  const std::uint64_t before = obs::global_alloc_stats().count;
  const auto outcome = app::run_topographic_query(vnet, grid);
  const std::uint64_t allocs = obs::global_alloc_stats().count - before;
  EXPECT_EQ(sorted_areas(outcome.regions),
            sorted_areas(app::dnc_label(grid)));
  EXPECT_LT(allocs, 800u);
}

/// Hooks whose payload is the list of node indices a block covers, moved
/// out of every input: a payload handed over twice arrives empty the second
/// time, and one never handed over is missing from the root's list.
synthesis::ProgramHooks moving_hooks(const core::GridTopology& grid,
                                     std::vector<std::size_t>* root_list,
                                     std::size_t* empty_inputs) {
  using List = std::vector<std::size_t>;
  synthesis::ProgramHooks hooks;
  hooks.sense = [&grid](const core::GridCoord& c) -> std::any {
    return List{grid.index_of(c)};
  };
  hooks.merge = [empty_inputs](std::any& acc, std::any&& incoming) {
    const List piece = std::move(std::any_cast<List&>(incoming));
    if (piece.empty()) ++*empty_inputs;
    if (!acc.has_value()) acc = List{};
    auto& list = std::any_cast<List&>(acc);
    list.insert(list.end(), piece.begin(), piece.end());
  };
  hooks.seal = [](std::any& acc, const core::GridCoord&, std::uint32_t) {
    return std::move(acc);
  };
  hooks.payload_units = [](const std::any&) { return 1.0; };
  hooks.exfiltrate = [root_list](const core::GridCoord&,
                                 const std::any& payload) {
    *root_list = std::any_cast<const List&>(payload);
  };
  return hooks;
}

void expect_each_payload_once(core::MessageFabric& fabric) {
  std::vector<std::size_t> root_list;
  std::size_t empty_inputs = 0;
  synthesis::AggregationProgram program(
      fabric, moving_hooks(fabric.grid(), &root_list, &empty_inputs));
  program.start_round();
  fabric.simulator().run();
  ASSERT_TRUE(program.finished());
  EXPECT_EQ(empty_inputs, 0u);
  std::ranges::sort(root_list);
  std::vector<std::size_t> every_node(fabric.grid().node_count());
  std::iota(every_node.begin(), every_node.end(), std::size_t{0});
  EXPECT_EQ(root_list, every_node);
}

TEST(Topographic, MovingHookReceivesEachPayloadOnce) {
  sim::Simulator sim(3);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  expect_each_payload_once(vnet);

  // With loss, ARQ retransmits frames whose first copy did arrive; the
  // duplicates it suppresses must not reach the program.
  emulation::PhysicalStack stack(4, 160, 1.3, 5);
  stack.enable_arq();
  stack.link->set_loss_probability(0.1);
  expect_each_payload_once(*stack.overlay);
  EXPECT_GT(stack.arq->counters().get("arq.dup"), 0u);
}

}  // namespace
}  // namespace wsn
