// Virtual architecture core: grid topology, Morton labeling, cost model,
// hierarchical groups, virtual network, collective primitives.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cost_model.h"
#include "core/grid_topology.h"
#include "core/groups.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "obs/profiler.h"

namespace wsn::core {
namespace {

TEST(GridTopology, IndexRoundTrip) {
  GridTopology g(5);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    EXPECT_EQ(g.index_of(g.coord_of(i)), i);
  }
  EXPECT_EQ(g.node_count(), 25u);
}

TEST(GridTopology, NeighborsAndBoundaries) {
  GridTopology g(3);
  EXPECT_FALSE(g.neighbor({0, 0}, Direction::kNorth).has_value());
  EXPECT_FALSE(g.neighbor({0, 0}, Direction::kWest).has_value());
  EXPECT_EQ(g.neighbor({0, 0}, Direction::kSouth), (GridCoord{1, 0}));
  EXPECT_EQ(g.neighbor({0, 0}, Direction::kEast), (GridCoord{0, 1}));
  EXPECT_FALSE(g.neighbor({2, 2}, Direction::kSouth).has_value());
}

TEST(GridTopology, OppositeDirections) {
  for (Direction d : kAllDirections) {
    EXPECT_EQ(opposite(opposite(d)), d);
  }
  EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
  EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
}

TEST(GridTopology, ManhattanDistance) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7u);
  EXPECT_EQ(manhattan({2, 2}, {2, 2}), 0u);
  EXPECT_EQ(manhattan({5, 1}, {1, 5}), 8u);
}

TEST(GridTopology, RouteIsShortestAndDimensionOrder) {
  GridTopology g(8);
  const auto path = g.route({1, 1}, {3, 4});
  ASSERT_EQ(path.size(), manhattan({1, 1}, {3, 4}) + 1);
  EXPECT_EQ(path.front(), (GridCoord{1, 1}));
  EXPECT_EQ(path.back(), (GridCoord{3, 4}));
  // Column-first: the second element moves east.
  EXPECT_EQ(path[1], (GridCoord{1, 2}));
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(manhattan(path[i - 1], path[i]), 1u);
  }
}

TEST(GridTopology, RouteOffGridThrows) {
  GridTopology g(4);
  EXPECT_THROW(g.route({0, 0}, {4, 0}), std::invalid_argument);
}

TEST(Morton, Figure3Labeling) {
  // The 4x4 grid of Figure 3:
  //   0  1 |  4  5
  //   2  3 |  6  7
  //   -----+------
  //   8  9 | 12 13
  //  10 11 | 14 15
  const std::vector<std::uint64_t> expected{0, 1, 4,  5,  2,  3,  6,  7,
                                            8, 9, 12, 13, 10, 11, 14, 15};
  std::size_t i = 0;
  for (std::int32_t r = 0; r < 4; ++r) {
    for (std::int32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(morton_index({r, c}), expected[i++]) << "(" << r << "," << c << ")";
    }
  }
}

TEST(Morton, RoundTrip) {
  for (std::uint64_t k = 0; k < 1024; ++k) {
    EXPECT_EQ(morton_index(morton_coord(k)), k);
  }
}

TEST(CostModel, UniformDefaults) {
  const CostModel cost = uniform_cost_model();
  EXPECT_DOUBLE_EQ(cost.hop_latency(1.0), 1.0);
  EXPECT_DOUBLE_EQ(cost.tx_energy(1.0), 1.0);
  EXPECT_DOUBLE_EQ(cost.rx_energy(1.0), 1.0);
  EXPECT_DOUBLE_EQ(cost.compute_energy(1.0), 1.0);
  EXPECT_DOUBLE_EQ(cost.message_latency({0, 0}, {2, 3}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(cost.message_energy({0, 0}, {2, 3}, 1.0), 10.0);
}

TEST(CostModel, ScalesWithBandwidthAndSpeed) {
  CostModel cost;
  cost.bandwidth = 4.0;
  cost.processing_speed = 2.0;
  EXPECT_DOUBLE_EQ(cost.hop_latency(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cost.compute_latency(3.0), 1.5);
  cost.validate();
  cost.bandwidth = 0.0;
  EXPECT_THROW(cost.validate(), std::invalid_argument);
}

TEST(Groups, PaperHierarchyOn4x4) {
  GridTopology grid(4);
  GroupHierarchy groups(grid);
  EXPECT_EQ(groups.max_level(), 2u);
  // Level 0: everyone leads themselves.
  EXPECT_TRUE(groups.is_leader({3, 2}, 0));
  // Level 1: NW corners of 2x2 blocks.
  EXPECT_EQ(groups.leader_of({1, 1}, 1), (GridCoord{0, 0}));
  EXPECT_EQ(groups.leader_of({2, 3}, 1), (GridCoord{2, 2}));
  EXPECT_TRUE(groups.is_leader({0, 2}, 1));
  EXPECT_FALSE(groups.is_leader({1, 2}, 1));
  // Level 2: the whole grid, led by (0,0).
  EXPECT_EQ(groups.leader_of({3, 3}, 2), (GridCoord{0, 0}));
  const auto leaders1 = groups.leaders(1);
  ASSERT_EQ(leaders1.size(), 4u);
  EXPECT_EQ(leaders1[0], (GridCoord{0, 0}));
  EXPECT_EQ(leaders1[3], (GridCoord{2, 2}));
}

TEST(Groups, EveryNodeKnowsItsRoleLocally) {
  GridTopology grid(8);
  GroupHierarchy groups(grid);
  for (const GridCoord& c : grid.all_coords()) {
    for (std::uint32_t level = 0; level <= groups.max_level(); ++level) {
      const GridCoord leader = groups.leader_of(c, level);
      EXPECT_TRUE(groups.is_leader(leader, level));
      // The leader's block contains c.
      const auto members = groups.members(c, level);
      EXPECT_EQ(members.size(), static_cast<std::size_t>(1)
                                    << (2 * level));
      EXPECT_NE(std::ranges::find(members, c), members.end());
    }
  }
}

TEST(Groups, HighestLeaderLevel) {
  GridTopology grid(8);
  GroupHierarchy groups(grid);
  EXPECT_EQ(groups.highest_leader_level({0, 0}), 3u);
  EXPECT_EQ(groups.highest_leader_level({4, 4}), 2u);
  EXPECT_EQ(groups.highest_leader_level({0, 2}), 1u);
  EXPECT_EQ(groups.highest_leader_level({1, 1}), 0u);
}

TEST(Groups, NonPowerOfTwoGridRejected) {
  GridTopology grid(6);
  EXPECT_THROW(GroupHierarchy{grid}, std::invalid_argument);
}

TEST(Groups, AlternativePlacements) {
  GridTopology grid(4);
  GroupHierarchy center(grid, LeaderPlacement::kBlockCenter);
  EXPECT_EQ(center.leader_of({0, 0}, 1), (GridCoord{1, 1}));
  EXPECT_EQ(center.leader_of({0, 0}, 2), (GridCoord{2, 2}));
  GroupHierarchy se(grid, LeaderPlacement::kSouthEast);
  EXPECT_EQ(se.leader_of({0, 0}, 1), (GridCoord{1, 1}));
  EXPECT_EQ(se.leader_of({0, 0}, 2), (GridCoord{3, 3}));
}

TEST(Groups, HopsToLeaderMatchesPrediction) {
  GridTopology grid(8);
  GroupHierarchy groups(grid);
  // Max over a level-2 block: the SE member, 2*(4-1) hops away.
  std::uint32_t max_hops = 0;
  for (const GridCoord& m : groups.members({0, 0}, 2)) {
    max_hops = std::max(max_hops, groups.hops_to_leader(m, 2));
  }
  EXPECT_EQ(max_hops, 6u);
}

class VirtualNetworkTest : public ::testing::Test {
 protected:
  VirtualNetworkTest() : vnet_(sim_, GridTopology(4), uniform_cost_model()) {}

  sim::Simulator sim_{1};
  VirtualNetwork vnet_;
};

TEST_F(VirtualNetworkTest, DeliveryAfterManhattanLatency) {
  sim::Time arrival = -1;
  GridCoord sender{-1, -1};
  vnet_.set_receiver({2, 3}, [&](const VirtualMessage& m) {
    arrival = sim_.now();
    sender = m.sender;
  });
  vnet_.send({0, 0}, {2, 3}, 42, 1.0);
  sim_.run();
  EXPECT_DOUBLE_EQ(arrival, 5.0);
  EXPECT_EQ(sender, (GridCoord{0, 0}));
}

TEST_F(VirtualNetworkTest, EnergyChargedAlongRoute) {
  vnet_.set_receiver({0, 3}, [](const VirtualMessage&) {});
  vnet_.send({0, 0}, {0, 3}, 0, 2.0);  // 3 hops of 2 units
  sim_.run();
  const auto& grid = vnet_.grid();
  // Sender: tx only. Relays (0,1),(0,2): rx+tx. Receiver: rx.
  EXPECT_DOUBLE_EQ(vnet_.ledger().spent(grid.index_of({0, 0})), 2.0);
  EXPECT_DOUBLE_EQ(vnet_.ledger().spent(grid.index_of({0, 1})), 4.0);
  EXPECT_DOUBLE_EQ(vnet_.ledger().spent(grid.index_of({0, 2})), 4.0);
  EXPECT_DOUBLE_EQ(vnet_.ledger().spent(grid.index_of({0, 3})), 2.0);
  // Total = path_energy(3 hops, 2 units) = 3 * (2+2).
  EXPECT_DOUBLE_EQ(vnet_.ledger().total(), 12.0);
  EXPECT_EQ(vnet_.total_hops(), 3u);
}

TEST_F(VirtualNetworkTest, OneHopSendsAllocateAlmostNothing) {
  // Relay energy is charged by walking the route, not by building it, and
  // the delivery closure fits sim::Callback's buffer, so a send of a
  // payload std::any holds in place allocates nothing once the kernel is
  // warm; the bound leaves room for the kernel's first slot chunk and lane
  // block.
  int got = 0;
  vnet_.set_receiver({0, 1}, [&got](const VirtualMessage&) { ++got; });
  const std::uint64_t before = obs::global_alloc_stats().count;
  for (int i = 0; i < 100; ++i) vnet_.send({0, 0}, {0, 1}, i, 1.0);
  sim_.run();
  EXPECT_LT(obs::global_alloc_stats().count - before, 10u);
  EXPECT_EQ(got, 100);
}

TEST_F(VirtualNetworkTest, OffGridEndpointThrows) {
  EXPECT_THROW(vnet_.send({0, 0}, {0, 4}, 0, 1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(vnet_.ledger().total(), 0.0);
}

TEST_F(VirtualNetworkTest, SelfSendIsFreeAndImmediate) {
  int got = 0;
  vnet_.set_receiver({1, 1}, [&](const VirtualMessage&) { ++got; });
  vnet_.send({1, 1}, {1, 1}, 0, 1.0);
  sim_.run();
  EXPECT_EQ(got, 1);
  EXPECT_DOUBLE_EQ(vnet_.ledger().total(), 0.0);
  EXPECT_DOUBLE_EQ(sim_.now(), 0.0);
}

TEST_F(VirtualNetworkTest, SendToLeaderUsesGroupService) {
  sim::Time arrival = -1;
  vnet_.set_receiver({0, 0}, [&](const VirtualMessage&) { arrival = sim_.now(); });
  vnet_.send_to_leader({1, 1}, 1, 0, 1.0);
  sim_.run();
  EXPECT_DOUBLE_EQ(arrival, 2.0);  // manhattan((1,1),(0,0)) = 2
}

TEST_F(VirtualNetworkTest, ComputeChargesLedger) {
  const sim::Time lat = vnet_.compute({2, 2}, 5.0);
  EXPECT_DOUBLE_EQ(lat, 5.0);
  EXPECT_DOUBLE_EQ(
      vnet_.ledger().spent(vnet_.grid().index_of({2, 2}),
                           net::EnergyUse::kCompute),
      5.0);
}

TEST(Primitives, GroupReduceSum) {
  sim::Simulator sim(1);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({0, 0}, 1);
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  double result = -1;
  std::uint32_t messages = 0;
  group_reduce_deadline(vnet, members, {0, 0}, values, ReduceOp::kSum, 1.0,
                        kNoDeadline, [&](const PartialResult& r) {
                          result = r.value;
                          messages = r.messages;
                        });
  sim.run();
  EXPECT_DOUBLE_EQ(result, 10.0);
  EXPECT_EQ(messages, 3u);  // leader's own value is local
}

TEST(Primitives, GroupReduceMaxMinCount) {
  sim::Simulator sim(2);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({2, 2}, 1);
  const std::vector<double> values{7.0, -2.0, 9.0, 4.0};
  double max_v = 0;
  double min_v = 0;
  double count_v = 0;
  group_reduce_deadline(vnet, members, {2, 2}, values, ReduceOp::kMax, 1.0,
                        kNoDeadline,
                        [&](const PartialResult& r) { max_v = r.value; });
  sim.run();
  group_reduce_deadline(vnet, members, {2, 2}, values, ReduceOp::kMin, 1.0,
                        kNoDeadline,
                        [&](const PartialResult& r) { min_v = r.value; });
  sim.run();
  group_reduce_deadline(vnet, members, {2, 2}, values, ReduceOp::kCount, 1.0,
                        kNoDeadline,
                        [&](const PartialResult& r) { count_v = r.value; });
  sim.run();
  EXPECT_DOUBLE_EQ(max_v, 9.0);
  EXPECT_DOUBLE_EQ(min_v, -2.0);
  EXPECT_DOUBLE_EQ(count_v, 4.0);
}

TEST(Primitives, GroupBroadcastReachesAllFollowers) {
  sim::Simulator sim(3);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({0, 0}, 2);  // whole grid
  double value = 0;
  std::uint32_t messages = 0;
  group_broadcast(vnet, {0, 0}, members, 3.25, 1.0,
                  [&](const CollectiveResult& r) {
                    value = r.value;
                    messages = r.messages;
                  });
  sim.run();
  EXPECT_DOUBLE_EQ(value, 3.25);
  EXPECT_EQ(messages, 15u);
}

TEST(Primitives, GroupSortReturnsSortedValues) {
  sim::Simulator sim(4);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({0, 0}, 1);
  const std::vector<double> values{3.0, 1.0, 4.0, 1.5};
  std::vector<double> sorted;
  group_sort_deadline(vnet, members, {0, 0}, values, 1.0, kNoDeadline,
                      [&](std::vector<double> v, PartialResult) {
                        sorted = std::move(v);
                      });
  sim.run();
  EXPECT_EQ(sorted, (std::vector<double>{1.0, 1.5, 3.0, 4.0}));
}

TEST(Primitives, GroupRankAssignsDenseRanks) {
  sim::Simulator sim(5);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({0, 0}, 1);
  const std::vector<double> values{3.0, 1.0, 4.0, 1.0};
  std::vector<std::uint32_t> ranks;
  group_rank_deadline(vnet, members, {0, 0}, values, 1.0, kNoDeadline,
                      [&](std::vector<std::uint32_t> r, PartialResult) {
                        ranks = std::move(r);
                      });
  sim.run();
  // Values 3,1,4,1 -> ranks 2,0,3,1 (ties by member order).
  EXPECT_EQ(ranks, (std::vector<std::uint32_t>{2, 0, 3, 1}));
}

TEST(Primitives, NoDeadlineArmsNoTimer) {
  // kNoDeadline closes each round on its last contribution: no timer is
  // armed and cancelled, so every event a round scheduled fired and none is
  // left pending.
  sim::Simulator sim(10);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({0, 0}, 2);  // whole grid
  const std::vector<double> values(members.size(), 2.0);
  std::vector<PartialResult> results;
  group_reduce_deadline(
      vnet, members, {0, 0}, values, ReduceOp::kSum, 1.0, kNoDeadline,
      [&](const PartialResult& r) { results.push_back(r); });
  sim.run();
  group_sort_deadline(vnet, members, {0, 0}, values, 1.0, kNoDeadline,
                      [&](std::vector<double>, PartialResult r) {
                        results.push_back(std::move(r));
                      });
  sim.run();
  group_rank_deadline(vnet, members, {0, 0}, values, 1.0, kNoDeadline,
                      [&](std::vector<std::uint32_t>, PartialResult r) {
                        results.push_back(std::move(r));
                      });
  sim.run();
  ASSERT_EQ(results.size(), 3u);
  for (const PartialResult& r : results) {
    EXPECT_TRUE(r.complete());
    EXPECT_FALSE(r.deadline_hit);
  }
  EXPECT_DOUBLE_EQ(results[0].value, 32.0);
  // The farthest member is 6 hops out; its value folds in for one op.
  EXPECT_DOUBLE_EQ(results[0].finished, 7.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.queue().total_scheduled(), sim.events_processed());
  EXPECT_EQ(sim.queue().cancelled_skips(), 0u);
}

TEST(Primitives, GroupBarrierReleasesEveryone) {
  sim::Simulator sim(8);
  VirtualNetwork vnet(sim, GridTopology(4), uniform_cost_model());
  GroupHierarchy groups(GridTopology(4));
  const auto members = groups.members({0, 0}, 2);  // whole grid
  bool done = false;
  sim::Time finished = 0;
  std::uint32_t messages = 0;
  group_barrier(vnet, members, {0, 0}, 1.0, [&](const CollectiveResult& r) {
    done = true;
    finished = r.finished;
    messages = r.messages;
  });
  sim.run();
  EXPECT_TRUE(done);
  // Arrive + release: two messages per non-leader member.
  EXPECT_EQ(messages, 2u * 15u);
  // Two traversals of the farthest member's distance (6 hops each way).
  EXPECT_DOUBLE_EQ(finished, 12.0);
}

TEST(Primitives, GroupBarrierSingletonIsImmediate) {
  sim::Simulator sim(9);
  VirtualNetwork vnet(sim, GridTopology(2), uniform_cost_model());
  const std::vector<GridCoord> members{{0, 0}};
  bool done = false;
  group_barrier(vnet, members, {0, 0}, 1.0,
                [&](const CollectiveResult&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(vnet.ledger().total(), 0.0);
}

TEST(Primitives, ReduceSizeMismatchThrows) {
  sim::Simulator sim(6);
  VirtualNetwork vnet(sim, GridTopology(2), uniform_cost_model());
  const std::vector<GridCoord> members{{0, 0}, {0, 1}};
  const std::vector<double> values{1.0};
  EXPECT_THROW(group_reduce_deadline(vnet, members, {0, 0}, values,
                                     ReduceOp::kSum, 1.0, kNoDeadline,
                                     [](const PartialResult&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsn::core
