// Program synthesis: the Figure 4 interpreter semantics (on simple scalar
// aggregation, where results are easy to predict) and the synthesizer's
// middleware-selection decisions.
#include <gtest/gtest.h>

#include "core/virtual_network.h"
#include "obs/profiler.h"
#include "synthesis/program.h"
#include "synthesis/synthesizer.h"
#include "taskgraph/mapping.h"

namespace wsn::synthesis {
namespace {

/// Hooks computing a plain sum of one reading per node - the simplest
/// aggregate, making message/merge accounting transparent.
ProgramHooks sum_hooks(double* result,
                       std::function<double(const core::GridCoord&)> reading) {
  ProgramHooks hooks;
  hooks.sense = [reading](const core::GridCoord& c) -> std::any {
    return reading(c);
  };
  hooks.merge = [](std::any& acc, const std::any& incoming) {
    const double v = std::any_cast<double>(incoming);
    if (!acc.has_value()) {
      acc = v;
    } else {
      acc = std::any_cast<double>(acc) + v;
    }
  };
  hooks.seal = [](std::any& acc, const core::GridCoord&, std::uint32_t) {
    return acc;
  };
  hooks.payload_units = [](const std::any&) { return 1.0; };
  hooks.exfiltrate = [result](const core::GridCoord&, std::any payload) {
    *result = std::any_cast<double>(payload);
  };
  return hooks;
}

TEST(AggregationProgram, SumsWholeGrid) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  double result = -1;
  AggregationProgram prog(
      vnet, sum_hooks(&result, [](const core::GridCoord&) { return 1.0; }));
  prog.start_round();
  sim.run();
  ASSERT_TRUE(prog.finished());
  EXPECT_DOUBLE_EQ(result, 16.0);
  EXPECT_EQ(prog.stats().exfiltration_node, (core::GridCoord{0, 0}));
}

TEST(AggregationProgram, WeightedSumIsExact) {
  sim::Simulator sim(2);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  double result = -1;
  AggregationProgram prog(vnet, sum_hooks(&result, [](const core::GridCoord& c) {
                            return static_cast<double>(c.row * 8 + c.col);
                          }));
  prog.start_round();
  sim.run();
  ASSERT_TRUE(prog.finished());
  EXPECT_DOUBLE_EQ(result, 63.0 * 64.0 / 2.0);
}

TEST(AggregationProgram, MessageCountMatchesQuadTreeEdges) {
  // m^2 - 1 network messages: every task sends to its parent except the
  // self-edges of leaders (one per interior node) and the root.
  for (std::size_t side : {2u, 4u, 8u, 16u}) {
    sim::Simulator sim(3);
    core::VirtualNetwork vnet(sim, core::GridTopology(side),
                              core::uniform_cost_model());
    double result = 0;
    AggregationProgram prog(
        vnet, sum_hooks(&result, [](const core::GridCoord&) { return 1.0; }));
    prog.start_round();
    sim.run();
    // The quad tree has (4m^2-4)/3 edges; one per interior node is a
    // leader self-edge, leaving m^2-1 network messages.
    const std::uint64_t interior = (side * side - 1) / 3;
    EXPECT_EQ(prog.stats().messages_sent, side * side - 1);
    EXPECT_EQ(prog.stats().self_merges, interior);
    EXPECT_EQ(prog.stats().remote_merges, side * side - 1);
  }
}

TEST(AggregationProgram, LatencyMatchesClosedForm) {
  // Unit costs: latency = sense(1) + sum over levels (2^l + merge(1)).
  for (std::size_t side : {2u, 4u, 8u, 16u, 32u}) {
    sim::Simulator sim(4);
    core::VirtualNetwork vnet(sim, core::GridTopology(side),
                              core::uniform_cost_model());
    double result = 0;
    AggregationProgram prog(
        vnet, sum_hooks(&result, [](const core::GridCoord&) { return 1.0; }));
    prog.start_round();
    sim.run();
    std::uint32_t levels = 0;
    for (std::size_t s = side; s > 1; s >>= 1) ++levels;
    const double expected =
        1.0 + static_cast<double>(2 * side - 2) + static_cast<double>(levels);
    EXPECT_DOUBLE_EQ(prog.stats().finished_at, expected) << "side " << side;
  }
}

TEST(AggregationProgram, SingleNodeGridExfiltratesImmediately) {
  sim::Simulator sim(5);
  core::VirtualNetwork vnet(sim, core::GridTopology(1),
                            core::uniform_cost_model());
  double result = -1;
  AggregationProgram prog(
      vnet, sum_hooks(&result, [](const core::GridCoord&) { return 7.0; }));
  prog.start_round();
  sim.run();
  ASSERT_TRUE(prog.finished());
  EXPECT_DOUBLE_EQ(result, 7.0);
  EXPECT_EQ(prog.stats().messages_sent, 0u);
}

TEST(AggregationProgram, SecondRoundRunsCleanly) {
  sim::Simulator sim(6);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  double result = -1;
  AggregationProgram prog(
      vnet, sum_hooks(&result, [](const core::GridCoord&) { return 2.0; }));
  prog.start_round();
  sim.run();
  EXPECT_DOUBLE_EQ(result, 32.0);
  result = -1;
  prog.start_round();
  sim.run();
  EXPECT_DOUBLE_EQ(result, 32.0);  // identical second round
}

TEST(AggregationProgram, SecondStartRoundAllocatesNoState) {
  // Per-node state is sized once, by the constructor; a new round resets it
  // in place. What start_round() may allocate is the kernel's share of its
  // one post per node, measured first with as many empty posts: it walks
  // the grid by index, with no temporary vector of coordinates.
  sim::Simulator sim(8);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  double result = -1;
  AggregationProgram prog(
      vnet, sum_hooks(&result, [](const core::GridCoord&) { return 1.0; }));
  prog.start_round();
  sim.run();

  std::uint64_t before = obs::global_alloc_stats().count;
  for (int i = 0; i < 64; ++i) sim.post([] {});
  const std::uint64_t kernel_allocs = obs::global_alloc_stats().count - before;
  sim.run();

  before = obs::global_alloc_stats().count;
  prog.start_round();
  const std::uint64_t allocs = obs::global_alloc_stats().count - before;
  sim.run();
  EXPECT_DOUBLE_EQ(result, 64.0);
  EXPECT_LE(allocs, kernel_allocs);
}

TEST(AggregationProgram, MissingHooksRejected) {
  sim::Simulator sim(7);
  core::VirtualNetwork vnet(sim, core::GridTopology(2),
                            core::uniform_cost_model());
  ProgramHooks empty;
  EXPECT_THROW(AggregationProgram(vnet, empty), std::invalid_argument);
}

TEST(RenderFigure4, ContainsAllClauses) {
  const std::string text = render_figure4();
  EXPECT_NE(text.find("start(= false), recLevel(= 0), maxrecLevel"),
            std::string::npos);
  EXPECT_NE(text.find("mGraph = {senderCoord, msubGraph, mrecLevel}"),
            std::string::npos);
  EXPECT_NE(text.find("Condition : start = true"), std::string::npos);
  EXPECT_NE(text.find("Condition : received mGraph"), std::string::npos);
  EXPECT_NE(text.find("Condition : transmit = true"), std::string::npos);
  EXPECT_NE(text.find("Condition : msgsReceived[recLevel] = 3"),
            std::string::npos);
  EXPECT_NE(text.find("exfiltrate message"), std::string::npos);
  EXPECT_NE(text.find("send message to Leader(recLevel+1)"),
            std::string::npos);
}

TEST(Synthesizer, SelectsGroupCommunicationForPaperMapping) {
  const taskgraph::QuadTree tree = taskgraph::build_quad_tree(4);
  core::GridTopology grid(4);
  core::GroupHierarchy groups(grid);
  const auto mapping = taskgraph::paper_mapping(tree, groups);
  const SynthesisReport report = synthesize(tree, mapping, groups);
  EXPECT_TRUE(report.regular_kary_tree);
  EXPECT_EQ(report.arity, 4u);
  EXPECT_EQ(report.levels, 2u);
  EXPECT_TRUE(report.leaders_aligned);
  EXPECT_TRUE(report.coverage_ok);
  EXPECT_TRUE(report.spatial_correlation_ok);
  EXPECT_TRUE(report.use_group_communication);
  EXPECT_NE(report.describe().find("group communication middleware"),
            std::string::npos);
}

TEST(Synthesizer, FallsBackWhenLeadersMisaligned) {
  const taskgraph::QuadTree tree = taskgraph::build_quad_tree(4);
  core::GridTopology grid(4);
  core::GroupHierarchy groups(grid);
  auto mapping = taskgraph::paper_mapping(tree, groups);
  // Move the root off its leader position.
  mapping[tree.graph.root()] = {1, 1};
  const SynthesisReport report = synthesize(tree, mapping, groups);
  EXPECT_FALSE(report.leaders_aligned);
  EXPECT_FALSE(report.use_group_communication);
}

TEST(Synthesizer, ReportsConstraintViolations) {
  const taskgraph::QuadTree tree = taskgraph::build_quad_tree(4);
  core::GridTopology grid(4);
  core::GroupHierarchy groups(grid);
  sim::Rng rng(5);
  const auto mapping = taskgraph::scrambled_leaf_mapping(tree, rng);
  const SynthesisReport report = synthesize(tree, mapping, groups);
  EXPECT_TRUE(report.coverage_ok);
  EXPECT_FALSE(report.spatial_correlation_ok);
}

}  // namespace
}  // namespace wsn::synthesis
