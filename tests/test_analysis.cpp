// Analysis library: closed forms cross-checked against brute-force
// enumeration, metrics, and table rendering.
#include <gtest/gtest.h>

#include "analysis/analytical.h"
#include "analysis/metrics.h"
#include "analysis/table.h"
#include "core/groups.h"
#include "taskgraph/mapping.h"

namespace wsn::analysis {
namespace {

TEST(Analytical, QuadtreeHopsMatchBruteForce) {
  // Brute force: sum manhattan(child leader, parent leader) over the whole
  // mapped quad-tree.
  for (std::size_t side : {2u, 4u, 8u, 16u}) {
    const taskgraph::QuadTree tree = taskgraph::build_quad_tree(side);
    core::GridTopology grid(side);
    core::GroupHierarchy groups(grid);
    const auto mapping = taskgraph::paper_mapping(tree, groups);
    std::uint64_t brute = 0;
    for (const auto& task : tree.graph.tasks()) {
      if (task.parent == taskgraph::kNoTask) continue;
      brute += core::manhattan(mapping[task.id], mapping[task.parent]);
    }
    const auto predicted = predict_quadtree(side, core::uniform_cost_model());
    EXPECT_EQ(predicted.total_hops, brute) << "side " << side;
    // Closed form 2m^2 - 2m.
    EXPECT_EQ(predicted.total_hops, 2 * side * side - 2 * side);
  }
}

TEST(Analytical, QuadtreeMessagesMatchEdgeCount) {
  for (std::size_t side : {2u, 4u, 8u, 16u, 32u}) {
    const auto predicted = predict_quadtree(side, core::uniform_cost_model());
    EXPECT_EQ(predicted.messages, side * side - 1);
    // steps = (m - 1) + log2 m.
    std::uint32_t levels = 0;
    for (std::size_t s = side; s > 1; s >>= 1) ++levels;
    EXPECT_EQ(predicted.steps, side - 1 + levels);
  }
}

TEST(Analytical, QuadtreeScalesWithCostKnobs) {
  core::CostModel cost;
  cost.bandwidth = 2.0;  // halve per-hop latency
  const auto base = predict_quadtree(8, core::uniform_cost_model());
  const auto fast = predict_quadtree(8, cost);
  // Communication part of latency halves; compute part unchanged.
  const double base_comm = base.latency - 1.0 - 3.0;  // sense + 3 merges
  const double fast_comm = fast.latency - 1.0 - 3.0;
  EXPECT_DOUBLE_EQ(fast_comm, base_comm / 2.0);
  // Energy is latency-independent.
  EXPECT_DOUBLE_EQ(fast.total_energy, base.total_energy);
}

TEST(Analytical, CentralizedHopsMatchBruteForce) {
  for (std::size_t side : {2u, 4u, 8u, 16u}) {
    std::uint64_t brute = 0;
    core::GridTopology grid(side);
    for (const core::GridCoord& c : grid.all_coords()) {
      brute += core::manhattan(c, {0, 0});
    }
    const auto predicted =
        predict_centralized(side, core::uniform_cost_model());
    EXPECT_EQ(predicted.total_hops, brute) << "side " << side;
  }
}

TEST(Analytical, GroupCommMatchesBruteForce) {
  core::GridTopology grid(32);
  core::GroupHierarchy groups(grid);
  for (std::uint32_t level = 1; level <= 5; ++level) {
    std::uint32_t max_hops = 0;
    double sum = 0;
    const auto members = groups.members({0, 0}, level);
    for (const core::GridCoord& m : members) {
      const std::uint32_t h = groups.hops_to_leader(m, level);
      max_hops = std::max(max_hops, h);
      sum += h;
    }
    const auto predicted = predict_group_comm(level);
    EXPECT_EQ(predicted.max_hops, max_hops);
    EXPECT_DOUBLE_EQ(predicted.mean_hops,
                     sum / static_cast<double>(members.size()));
  }
}

TEST(Analytical, FanoutJ1EqualsQuadtree) {
  for (std::size_t side : {4u, 16u, 64u}) {
    const auto quad = predict_quadtree(side, core::uniform_cost_model());
    const auto f4 = predict_fanout(side, 1, core::uniform_cost_model());
    EXPECT_EQ(quad.messages, f4.messages);
    EXPECT_EQ(quad.total_hops, f4.total_hops);
    EXPECT_DOUBLE_EQ(quad.total_energy, f4.total_energy);
    EXPECT_DOUBLE_EQ(quad.latency, f4.latency);
  }
}

TEST(Analytical, FanoutCommLatencyIsInvariant) {
  // The diagonal transfers telescope to 2(m-1) hops at every fan-out.
  const core::CostModel cost = core::uniform_cost_model();
  for (std::uint32_t j : {1u, 2u, 3u, 6u}) {
    const auto pred = predict_fanout(64, j, cost);
    const double comm = pred.latency - 1.0 -
                        static_cast<double>(6 / j);  // sense + merges
    EXPECT_DOUBLE_EQ(comm, 2.0 * 63.0) << "j=" << j;
  }
}

TEST(Analytical, FanoutSingleLevelIsCentralizedGather) {
  // j = log2(m): one level, every node sends straight to the root.
  const auto pred = predict_fanout(16, 4, core::uniform_cost_model());
  EXPECT_EQ(pred.messages, 255u);
  // Hops = sum of manhattan distances to (0,0).
  EXPECT_EQ(pred.total_hops, 16u * 16u * 15u);
}

TEST(Analytical, FanoutRejectsBadExponent) {
  EXPECT_THROW(predict_fanout(16, 3, core::uniform_cost_model()),
               std::invalid_argument);
  EXPECT_THROW(predict_fanout(16, 0, core::uniform_cost_model()),
               std::invalid_argument);
}

TEST(Analytical, NonPowerOfTwoRejected) {
  EXPECT_THROW(predict_quadtree(6, core::uniform_cost_model()),
               std::invalid_argument);
}

TEST(Metrics, EnergyReportAggregates) {
  net::EnergyLedger ledger(4);
  ledger.charge(0, net::EnergyUse::kTx, 4.0);
  ledger.charge(1, net::EnergyUse::kRx, 2.0);
  ledger.charge(2, net::EnergyUse::kCompute, 2.0);
  const net::EnergyReport r = ledger.report();
  EXPECT_DOUBLE_EQ(r.total, 8.0);
  EXPECT_DOUBLE_EQ(r.mean, 2.0);
  EXPECT_DOUBLE_EQ(r.max, 4.0);
  EXPECT_DOUBLE_EQ(r.min, 0.0);
  EXPECT_DOUBLE_EQ(r.tx, 4.0);
  EXPECT_DOUBLE_EQ(r.rx, 2.0);
  EXPECT_DOUBLE_EQ(r.compute, 2.0);
  EXPECT_GT(r.cv, 0.0);
}

TEST(Metrics, ProjectedLifetime) {
  net::EnergyLedger ledger(2);
  ledger.charge(0, net::EnergyUse::kTx, 5.0);
  ledger.charge(1, net::EnergyUse::kTx, 2.0);
  EXPECT_DOUBLE_EQ(projected_lifetime_rounds(ledger, 100.0), 20.0);
  net::EnergyLedger idle(2);
  EXPECT_DOUBLE_EQ(projected_lifetime_rounds(idle, 100.0), 0.0);
}

TEST(Table, AlignsColumnsAndFormats) {
  Table t({"a", "long-header"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(-7), "-7");
}

TEST(Table, PercentError) {
  EXPECT_EQ(Table::pct_err(110.0, 100.0), "10.0%");
  EXPECT_EQ(Table::pct_err(90.0, 100.0), "-10.0%");
  EXPECT_EQ(Table::pct_err(0.0, 0.0), "0.0%");
  EXPECT_EQ(Table::pct_err(1.0, 0.0), "inf");
}

TEST(Table, ShortRowsPadded) {
  Table t({"x", "y", "z"});
  t.row({"only-x"});
  EXPECT_NE(t.str().find("only-x"), std::string::npos);
}

}  // namespace
}  // namespace wsn::analysis
