// Extension features: wire serialization, contour maps, protocol
// maintenance under node failure, congestion-aware virtual layer.
#include <gtest/gtest.h>

#include <algorithm>

#include "app/centralized.h"
#include "app/contours.h"
#include "app/field.h"
#include "app/serialize.h"
#include "app/topographic.h"
#include "core/virtual_network.h"
#include "emulation/emulation_protocol.h"
#include "emulation/leader_binding.h"
#include "emulation/physical_stack.h"
#include "obs/profiler.h"

namespace wsn {
namespace {

// --------------------------- serialization --------------------------------

TEST(Serialize, RoundTripLeaf) {
  const app::BlockSummary s = app::BlockSummary::leaf({3, -2}, true);
  const auto bytes = app::encode_summary(s);
  const app::BlockSummary back = app::decode_summary(bytes);
  EXPECT_EQ(back.row0, 3);
  EXPECT_EQ(back.col0, -2);
  EXPECT_EQ(back.open, s.open);
  EXPECT_EQ(back.north, s.north);
}

TEST(Serialize, RoundTripRandomBlocks) {
  sim::Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const app::FeatureGrid grid = app::random_grid(16, rng.uniform(0.2, 0.8), rng);
    const auto w = static_cast<std::uint32_t>(rng.between(1, 16));
    const auto h = static_cast<std::uint32_t>(rng.between(1, 16));
    const auto r0 = static_cast<std::int32_t>(rng.below(16 - h + 1));
    const auto c0 = static_cast<std::int32_t>(rng.below(16 - w + 1));
    const app::BlockSummary s = app::BlockSummary::of_rect(grid, r0, c0, w, h);
    const app::BlockSummary back = app::decode_summary(app::encode_summary(s));
    EXPECT_EQ(back.north, s.north);
    EXPECT_EQ(back.south, s.south);
    EXPECT_EQ(back.west, s.west);
    EXPECT_EQ(back.east, s.east);
    EXPECT_EQ(back.open, s.open);
    EXPECT_EQ(back.closed.size(), s.closed.size());
    EXPECT_EQ(back.total_area(), s.total_area());
  }
}

TEST(Serialize, TruncatedInputThrows) {
  const auto bytes =
      app::encode_summary(app::BlockSummary::leaf({0, 0}, true));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(app::decode_summary(std::span(bytes.data(), cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(Serialize, TrailingBytesRejected) {
  auto bytes = app::encode_summary(app::BlockSummary::leaf({0, 0}, false));
  bytes.push_back(0);
  EXPECT_THROW(app::decode_summary(bytes), std::runtime_error);
}

/// Header and perimeter of a one-cell feature summary at (0, 0), up to its
/// open-region count.
std::vector<std::uint8_t> one_cell_prefix() {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t v : {0, 0, 1, 1}) app::detail::put_varint(bytes, v);
  for (int edge = 0; edge < 4; ++edge) {
    for (std::uint64_t v : {1, 1, 1}) app::detail::put_varint(bytes, v);
  }
  return bytes;
}

void put_region(std::vector<std::uint8_t>& bytes, std::uint64_t area) {
  app::detail::put_varint(bytes, area);
  for (int i = 0; i < 4; ++i) app::detail::put_varint(bytes, 0);
}

TEST(Serialize, RepeatedOpenLabelRejected) {
  // Two open records both labelled 1: the second (area 7) must not be
  // dropped silently.
  std::vector<std::uint8_t> bytes = one_cell_prefix();
  app::detail::put_varint(bytes, 2);
  app::detail::put_varint(bytes, 1);
  put_region(bytes, 1);
  app::detail::put_varint(bytes, 1);
  put_region(bytes, 7);
  app::detail::put_varint(bytes, 0);
  EXPECT_THROW(app::decode_summary(bytes), std::runtime_error);
}

TEST(Serialize, EdgeLengthBeyondExtentRejectedBeforeAllocating) {
  // A one-cell header whose north edge claims 2^62 or 2^28 labels: the
  // decoder must reject it from the header, not reserve for it.
  for (std::uint64_t len : {std::uint64_t{1} << 62, std::uint64_t{1} << 28}) {
    std::vector<std::uint8_t> bytes;
    for (std::uint64_t v : {0, 0, 1, 1}) app::detail::put_varint(bytes, v);
    app::detail::put_varint(bytes, len);
    const std::uint64_t before = obs::global_alloc_stats().bytes;
    EXPECT_THROW(app::decode_summary(bytes), std::runtime_error)
        << "length " << len;
    EXPECT_LT(obs::global_alloc_stats().bytes - before, 1u << 20)
        << "length " << len;
  }
}

TEST(Serialize, ClaimedExtentAllocatesOnlyWhatIsRead) {
  // 16 bytes: a header claiming a 2^24 x 2^24 block and a north edge of
  // 2^24 labels, then one label and a run cut off mid-varint. The edge's
  // length matches the extent, so only reading it can stop the decoder.
  std::vector<std::uint8_t> bytes;
  constexpr std::uint64_t kSide = std::uint64_t{1} << 24;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0}, kSide, kSide,
                          kSide, std::uint64_t{1}}) {
    app::detail::put_varint(bytes, v);
  }
  bytes.push_back(0x80);  // a run with more bytes to come
  ASSERT_EQ(bytes.size(), 16u);
  const std::uint64_t before = obs::global_alloc_stats().bytes;
  EXPECT_THROW(app::decode_summary(bytes), std::runtime_error);
  EXPECT_LT(obs::global_alloc_stats().bytes - before, 1024u);
}

TEST(Serialize, CompressionGrowsSlowerThanArea) {
  // The paper's rationale for boundary summaries: their size tracks the
  // perimeter, not the area. Compare bytes for a solid block at doubling
  // sides.
  std::vector<double> bytes_per_cell;
  for (std::size_t side : {8u, 16u, 32u, 64u}) {
    const app::FeatureGrid grid = app::full_grid(side);
    const app::BlockSummary s = app::BlockSummary::of_rect(
        grid, 0, 0, static_cast<std::uint32_t>(side),
        static_cast<std::uint32_t>(side));
    bytes_per_cell.push_back(static_cast<double>(app::encoded_size(s)) /
                             static_cast<double>(side * side));
  }
  for (std::size_t i = 1; i < bytes_per_cell.size(); ++i) {
    EXPECT_LT(bytes_per_cell[i], bytes_per_cell[i - 1]);
  }
}

TEST(Serialize, ExactSizeModelDrivesCosts) {
  const app::ExactSizeModel model{16.0};
  const app::BlockSummary leaf = app::BlockSummary::leaf({0, 0}, true);
  EXPECT_GT(model.units(leaf), 0.0);
  EXPECT_LT(model.units(leaf), 2.0);  // a leaf fits in roughly a frame
}

TEST(Serialize, VirtualRunWithExactSizesStillCorrect) {
  sim::Rng rng(9);
  const app::FeatureGrid grid = app::random_grid(16, 0.5, rng);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(16),
                            core::uniform_cost_model());
  app::TopographicConfig config;
  // Route payload sizing through the exact codec.
  config.size_model = app::SummarySizeModel{};  // placeholder, replaced below
  auto regions_out = std::make_shared<std::vector<app::RegionInfo>>();
  auto hooks = app::topographic_hooks(grid, config, regions_out.get());
  hooks.payload_units = [](const std::any& p) {
    return app::ExactSizeModel{}.units(std::any_cast<const app::BlockSummary&>(p));
  };
  synthesis::AggregationProgram prog(vnet, hooks);
  prog.start_round();
  sim.run();
  ASSERT_TRUE(prog.finished());
  EXPECT_EQ(regions_out->size(), app::label_regions(grid).region_count());
}

// ------------------------------ contours ----------------------------------

TEST(Contours, IsoLevelsAreInteriorAndAscending) {
  const auto levels = app::iso_levels(0.0, 1.0, 4);
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_DOUBLE_EQ(levels[0], 0.2);
  EXPECT_DOUBLE_EQ(levels[3], 0.8);
  EXPECT_THROW(app::iso_levels(1.0, 0.0, 3), std::invalid_argument);
  EXPECT_THROW(app::iso_levels(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Contours, GradientFieldYieldsNestedBands) {
  const app::ScalarField field = app::gradient_field(0.0, 1.0);
  const app::ContourMap map =
      app::contour_map(field, 16, app::iso_levels(0.0, 1.0, 3));
  ASSERT_EQ(map.levels.size(), 3u);
  EXPECT_TRUE(app::monotone_nesting(map));
  // Each super-level set of a monotone gradient is one band.
  for (const auto& level : map.levels) {
    EXPECT_EQ(level.regions.size(), 1u);
  }
}

TEST(Contours, InNetworkMatchesSequential) {
  sim::Rng rng(3);
  const app::ScalarField field = app::hotspot_field(3, rng);
  const auto thresholds = app::iso_levels(0.1, 0.9, 4);
  const app::ContourMap reference = app::contour_map(field, 16, thresholds);

  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(16),
                            core::uniform_cost_model());
  const auto in_network =
      app::contour_map_in_network(vnet, field, thresholds);
  ASSERT_EQ(in_network.map.levels.size(), reference.levels.size());
  for (std::size_t i = 0; i < reference.levels.size(); ++i) {
    EXPECT_EQ(in_network.map.levels[i].regions.size(),
              reference.levels[i].regions.size());
    EXPECT_EQ(in_network.map.levels[i].feature_area,
              reference.levels[i].feature_area);
  }
  EXPECT_GT(in_network.total_latency, 0.0);
  EXPECT_EQ(in_network.total_messages,
            thresholds.size() * (16 * 16 - 1));
}

TEST(Contours, RenderDepthsAreDigits) {
  const app::ScalarField field = app::gradient_field(0.0, 1.0);
  const app::ContourMap map =
      app::contour_map(field, 8, app::iso_levels(0.0, 1.0, 2));
  const std::string art = map.render(field, 8);
  EXPECT_NE(art.find('.'), std::string::npos);
  EXPECT_NE(art.find('2'), std::string::npos);
}

// --------------------------- maintenance ----------------------------------

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest() : stack_(4, 200, 1.3, 77) {
    EXPECT_TRUE(stack_.healthy());
  }
  emulation::PhysicalStack stack_;
};

TEST_F(MaintenanceTest, RepairRestoresRoutesAfterFailures) {
  // Kill 10% of nodes (never a whole cell - check after).
  sim::Rng rng(5);
  std::size_t killed = 0;
  while (killed < 20) {
    const auto victim = static_cast<net::NodeId>(
        rng.below(stack_.graph->node_count()));
    if (!stack_.link->is_down(victim)) {
      stack_.link->set_down(victim, true);
      ++killed;
    }
  }
  // Preconditions may degrade; only require occupied cells with live nodes.
  core::GridTopology grid(4);
  for (const core::GridCoord& cell : grid.all_coords()) {
    bool any_live = false;
    for (net::NodeId m : stack_.mapper->members(cell)) {
      any_live |= !stack_.link->is_down(m);
    }
    ASSERT_TRUE(any_live);
  }

  const auto repaired = emulation::run_topology_repair(
      *stack_.link, *stack_.mapper, stack_.emulation_result.tables);

  // Every live node's surviving chains must route through live nodes only.
  for (net::NodeId i = 0; i < stack_.graph->node_count(); ++i) {
    if (stack_.link->is_down(i)) continue;
    for (core::Direction d : core::kAllDirections) {
      if (!grid.neighbor(stack_.mapper->cell_of(i), d)) continue;
      const auto chain =
          emulation::follow_chain(*stack_.mapper, repaired.tables, i, d);
      if (chain.empty()) continue;  // direction may be legitimately lost
      for (net::NodeId hop : chain) {
        EXPECT_FALSE(stack_.link->is_down(hop));
      }
    }
  }
  // Repair involves only the surviving nodes: strictly fewer broadcasts
  // than the cold start, which had 20 more participants.
  EXPECT_LT(repaired.broadcasts, stack_.emulation_result.broadcasts);
}

TEST_F(MaintenanceTest, RepairWithoutFailuresIsQuiet) {
  const auto repaired = emulation::run_topology_repair(
      *stack_.link, *stack_.mapper, stack_.emulation_result.tables);
  EXPECT_EQ(repaired.adoptions, 0u);
  EXPECT_EQ(repaired.tables.size(), stack_.emulation_result.tables.size());
  for (std::size_t i = 0; i < repaired.tables.size(); ++i) {
    for (core::Direction d : core::kAllDirections) {
      EXPECT_EQ(repaired.tables[i][d], stack_.emulation_result.tables[i][d]);
    }
  }
}

TEST_F(MaintenanceTest, BindingFailoverReelectsOnlyAffectedCells) {
  // Kill two bound leaders.
  const net::NodeId dead1 = stack_.binding_result.leader_of({0, 0}, 4);
  const net::NodeId dead2 = stack_.binding_result.leader_of({2, 3}, 4);
  stack_.link->set_down(dead1, true);
  stack_.link->set_down(dead2, true);

  const auto repaired = emulation::run_binding_repair(
      *stack_.link, *stack_.mapper, stack_.binding_result);
  EXPECT_TRUE(repaired.unique_leaders);

  core::GridTopology grid(4);
  for (const core::GridCoord& cell : grid.all_coords()) {
    const net::NodeId before = stack_.binding_result.leader_of(cell, 4);
    const net::NodeId after = repaired.leader_of(cell, 4);
    if (before == dead1 || before == dead2) {
      EXPECT_NE(after, before);
      EXPECT_NE(after, net::kNoNode);
      EXPECT_FALSE(stack_.link->is_down(after));
      // The new leader is the live node closest to the center.
      const auto oracle = emulation::oracle_leaders(
          *stack_.mapper, emulation::BindingMetric::kDistanceToCenter,
          *stack_.ledger, stack_.link.get());
      EXPECT_EQ(after, oracle[static_cast<std::size_t>(cell.row) * 4 +
                              static_cast<std::size_t>(cell.col)]);
    } else {
      EXPECT_EQ(after, before);
    }
  }
}

TEST_F(MaintenanceTest, QueryStillCorrectAfterRepair) {
  const net::NodeId dead = stack_.binding_result.leader_of({1, 1}, 4);
  stack_.link->set_down(dead, true);
  auto emu = emulation::run_topology_repair(*stack_.link, *stack_.mapper,
                                            stack_.emulation_result.tables);
  auto bind = emulation::run_binding_repair(*stack_.link, *stack_.mapper,
                                            stack_.binding_result);
  emulation::OverlayNetwork overlay(*stack_.link, *stack_.mapper,
                                    std::move(emu), std::move(bind));
  sim::Rng rng(4);
  const app::FeatureGrid grid = app::random_grid(4, 0.5, rng);
  const auto outcome = app::run_topographic_query(overlay, grid);
  EXPECT_EQ(outcome.regions.size(), app::label_regions(grid).region_count());
  EXPECT_EQ(overlay.failed_sends(), 0u);
}

// ---------------------------- congestion ----------------------------------

TEST(Congestion, SerializedRelaysDelayButPreserveResults) {
  sim::Rng rng(6);
  const app::FeatureGrid grid = app::random_grid(8, 0.5, rng);

  sim::Simulator sim_free(1);
  core::VirtualNetwork free_net(sim_free, core::GridTopology(8),
                                core::uniform_cost_model());
  const auto free = app::run_topographic_query(free_net, grid);

  sim::Simulator sim_busy(1);
  core::VirtualNetwork busy_net(sim_busy, core::GridTopology(8),
                                core::uniform_cost_model(),
                                core::LeaderPlacement::kNorthWest,
                                core::Congestion::kNodeSerialized);
  const auto busy = app::run_topographic_query(busy_net, grid);

  EXPECT_EQ(free.regions.size(), busy.regions.size());
  EXPECT_GE(busy.round.finished_at, free.round.finished_at);
  // Energy is timing-independent.
  EXPECT_DOUBLE_EQ(free_net.ledger().total(), busy_net.ledger().total());
}

TEST(Congestion, CentralizedSinkIsTheBottleneck) {
  const std::size_t side = 8;
  const app::FeatureGrid grid = app::checkerboard_grid(side);

  sim::Simulator sim_a(1);
  core::VirtualNetwork dnc_net(sim_a, core::GridTopology(side),
                               core::uniform_cost_model(),
                               core::LeaderPlacement::kNorthWest,
                               core::Congestion::kNodeSerialized);
  const auto dnc = app::run_topographic_query(dnc_net, grid);

  sim::Simulator sim_b(1);
  core::VirtualNetwork central_net(sim_b, core::GridTopology(side),
                                   core::uniform_cost_model(),
                                   core::LeaderPlacement::kNorthWest,
                                   core::Congestion::kNodeSerialized);
  const auto central = app::run_centralized_query(central_net, grid);

  // Under contention the centralized funnel serializes ~N messages through
  // the sink's neighborhood; the quad-tree keeps its parallelism.
  EXPECT_GT(central.finished_at, dnc.round.finished_at);
  EXPECT_GT(central_net.counters().get("vnet.queued"),
            dnc_net.counters().get("vnet.queued"));
}

TEST(Congestion, SingleMessageUnaffected) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model(),
                            core::LeaderPlacement::kNorthWest,
                            core::Congestion::kNodeSerialized);
  sim::Time arrival = -1;
  vnet.set_receiver({0, 7}, [&](const core::VirtualMessage&) {
    arrival = sim.now();
  });
  vnet.send({0, 0}, {0, 7}, 0, 1.0);
  sim.run();
  EXPECT_DOUBLE_EQ(arrival, 7.0);  // no other traffic: identical to kNone
}

}  // namespace
}  // namespace wsn
