// Distributed failure detection and in-protocol re-election
// (emulation/failure_detector.h): heartbeat/lease expiry detects a crashed
// leader from messages alone, the surviving cell members elect the same
// winner the centralized oracle would pick, recovered nodes rejoin without
// spurious elections, and epoch-stale contributions are rejected by the
// deadline collectives. The cross-check test runs the identical fault
// campaign through the distributed detector and the oracle FailoverBinder
// and demands the same final bindings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/primitives.h"
#include "emulation/failure_detector.h"
#include "emulation/leader_binding.h"
#include "emulation/physical_stack.h"
#include "net/reliable_link.h"
#include "obs/profiler.h"
#include "sim/fault_plan.h"
#include "tests/failover_oracle.h"

namespace wsn {
namespace {

using core::GridCoord;

constexpr std::size_t kSide = 4;
constexpr std::size_t kNodes = 60;
constexpr double kRange = 1.3;
constexpr std::uint64_t kSeed = 7;

/// Worst-case crash -> claim latency for the default detector config
/// (mirrors ChaosSoak::detection_bound).
double detection_bound(const emulation::FailureDetectorConfig& d) {
  return 1.5 * d.lease_duration + d.lease_duration +
         1.5 * d.election_timeout + 10.0;
}

class FailureDetectorTest : public ::testing::Test {
 protected:
  FailureDetectorTest() : stack_(kSide, kNodes, kRange, kSeed) {
    EXPECT_TRUE(stack_.healthy());
    stack_.enable_arq();
    detector_ = std::make_unique<emulation::FailureDetector>(*stack_.overlay);
  }

  ~FailureDetectorTest() override {
    // Drain pending timers so no callback outlives the stack.
    detector_->stop();
    stack_.sim.run();
  }

  emulation::PhysicalStack stack_;
  std::unique_ptr<emulation::FailureDetector> detector_;
};

TEST_F(FailureDetectorTest, SteadyStateElectsNobody) {
  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 120.0);
  EXPECT_TRUE(detector_->claims().empty());
  EXPECT_EQ(detector_->counters().get("fd.lease_expire"), 0u);
  EXPECT_GT(detector_->counters().get("fd.beat"), 0u);
  EXPECT_TRUE(detector_->split_brains().empty());
  // Every node still believes the setup binding.
  for (const GridCoord& c : stack_.overlay->grid().all_coords()) {
    const net::NodeId leader = stack_.overlay->bound_node(c);
    for (const net::NodeId m : stack_.mapper->members(c)) {
      EXPECT_EQ(detector_->believed_leader(m), leader);
    }
  }
}

TEST_F(FailureDetectorTest, DetectsLeaderCrashAndReElectsOracleWinner) {
  const GridCoord cell{1, 1};
  const net::NodeId old_leader = stack_.overlay->bound_node(cell);
  ASSERT_NE(old_leader, net::kNoNode);
  ASSERT_GE(stack_.mapper->members(cell).size(), 2u);

  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 40.0);
  ASSERT_TRUE(detector_->claims().empty());

  const double t0 = stack_.sim.now();
  stack_.link->set_down(old_leader, true);
  const double bound = detection_bound(emulation::FailureDetectorConfig{});
  stack_.sim.run_until(t0 + bound);

  ASSERT_EQ(detector_->claims().size(), 1u);
  const emulation::ClaimRecord& claim = detector_->claims().front();
  EXPECT_EQ(claim.cell.row, cell.row);
  EXPECT_EQ(claim.cell.col, cell.col);
  EXPECT_NE(claim.winner, old_leader);
  EXPECT_GE(claim.at, t0);
  EXPECT_LE(claim.at - t0, bound);
  EXPECT_GE(claim.epoch, 1u);

  // The winner is the oracle's pick: minimum (score, id) over live members.
  const auto oracle = emulation::oracle_leaders(
      *stack_.mapper, emulation::BindingMetric::kDistanceToCenter,
      *stack_.ledger, stack_.link.get());
  EXPECT_EQ(claim.winner,
            oracle[static_cast<std::size_t>(cell.row) * kSide +
                   static_cast<std::size_t>(cell.col)]);

  // Leadership actually re-bound in the overlay, with a bumped epoch, and
  // every surviving member converged on the new leader.
  EXPECT_EQ(stack_.overlay->bound_node(cell), claim.winner);
  EXPECT_EQ(stack_.overlay->binding_epoch(cell), claim.epoch);
  EXPECT_EQ(detector_->epoch_view(claim.winner), claim.epoch);
  for (const net::NodeId m : stack_.mapper->members(cell)) {
    if (m == old_leader) continue;
    EXPECT_EQ(detector_->believed_leader(m), claim.winner);
  }
  EXPECT_TRUE(detector_->split_brains().empty());
}

TEST_F(FailureDetectorTest, MemberCrashDoesNotDeposeLeader) {
  const GridCoord cell{2, 1};
  const net::NodeId leader = stack_.overlay->bound_node(cell);
  net::NodeId victim = net::kNoNode;
  for (const net::NodeId m : stack_.mapper->members(cell)) {
    if (m != leader) victim = m;
  }
  ASSERT_NE(victim, net::kNoNode);

  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 20.0);
  stack_.link->set_down(victim, true);
  stack_.sim.run_until(stack_.sim.now() +
                       detection_bound(emulation::FailureDetectorConfig{}));

  EXPECT_TRUE(detector_->claims().empty());
  EXPECT_EQ(stack_.overlay->bound_node(cell), leader);
}

TEST_F(FailureDetectorTest, RecoveredLeaderRejoinsAsFollower) {
  const GridCoord cell{3, 1};
  ASSERT_GE(stack_.mapper->members(cell).size(), 2u);
  const net::NodeId old_leader = stack_.overlay->bound_node(cell);
  const emulation::FailureDetectorConfig cfg{};
  const double bound = detection_bound(cfg);

  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 20.0);
  const double t0 = stack_.sim.now();
  stack_.link->set_down(old_leader, true);
  stack_.sim.run_until(t0 + bound);
  ASSERT_EQ(detector_->claims().size(), 1u);
  const net::NodeId winner = detector_->claims().front().winner;

  stack_.link->set_down(old_leader, false);
  // Give the rejoin hello, the new leader's beats, and the stale-beat
  // demote path time to converge (several lease intervals).
  stack_.sim.run_until(stack_.sim.now() + 6.0 * cfg.lease_duration);

  EXPECT_EQ(detector_->claims().size(), 1u)
      << "rejoin must not trigger another election";
  EXPECT_EQ(detector_->believed_leader(old_leader), winner);
  EXPECT_GT(detector_->counters().get("fd.rejoin") +
                detector_->counters().get("fd.demote"),
            0u);
  EXPECT_TRUE(detector_->split_brains().empty());
  EXPECT_EQ(stack_.overlay->bound_node(cell), winner);
}

TEST_F(FailureDetectorTest, CellOutageSuspectedThenResumed) {
  const GridCoord cell{3, 3};
  std::vector<net::NodeId> members(stack_.mapper->members(cell).begin(),
                                   stack_.mapper->members(cell).end());
  ASSERT_FALSE(members.empty());
  const emulation::FailureDetectorConfig cfg{};

  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 2.0 * emulation::kUpleasePeriod);
  for (const net::NodeId m : members) stack_.link->set_down(m, true);
  stack_.sim.run_until(stack_.sim.now() + 2.5 * cfg.uplease_duration);
  EXPECT_GE(detector_->counters().get("fd.cell_suspect"), 1u)
      << "the hierarchy should suspect a fully dark cell";

  for (const net::NodeId m : members) stack_.link->set_down(m, false);
  stack_.sim.run_until(stack_.sim.now() + 3.0 * emulation::kUpleasePeriod +
                       2.0 * cfg.lease_duration);
  EXPECT_GE(detector_->counters().get("fd.cell_resume"), 1u)
      << "upleases after recovery should clear the suspicion";
}

TEST_F(FailureDetectorTest, HeartbeatsCostRealEnergy) {
  detector_->start();
  const double e0 = stack_.ledger->total();
  stack_.sim.run_until(stack_.sim.now() + 60.0);
  EXPECT_GT(stack_.ledger->total(), e0)
      << "heartbeat traffic must be charged to the energy ledger";
  EXPECT_GT(detector_->counters().get("fd.beat"), 0u);
  EXPECT_GT(detector_->counters().get("fd.uplease"), 0u);
}

TEST_F(FailureDetectorTest, DeadSenderGiveUpKeepsItsNextHop) {
  // A down sender's ARQ exchange gives up after one attempt. That indicts
  // the sender, not the hop: the next hop must not be suspected nor the
  // routes through it purged, or the sender's messages find no route once
  // it recovers.
  const GridCoord from{1, 1};
  const GridCoord to{1, 2};
  const net::NodeId sender = stack_.overlay->bound_node(from);
  const net::NodeId next = stack_.overlay->route_next_hop(sender, to);
  ASSERT_NE(next, net::kNoNode);
  std::size_t arrived = 0;
  stack_.overlay->set_receiver(
      to, [&arrived](const core::VirtualMessage&) { ++arrived; });

  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 20.0);
  const std::uint64_t hop_give_ups =
      detector_->counters().get("fd.hop_give_up");
  const std::uint64_t give_ups = stack_.arq->counters().get("arq.give_up");
  stack_.link->set_down(sender, true);
  stack_.overlay->send(from, to, 1.0, 1.0);
  // Long enough for the dead sender's one-attempt give-up, far short of a
  // live sender's full retry budget.
  stack_.sim.run_until(stack_.sim.now() + 10.0);
  EXPECT_GT(stack_.arq->counters().get("arq.give_up"), give_ups);
  EXPECT_FALSE(stack_.overlay->is_suspected(next));
  EXPECT_EQ(detector_->counters().get("fd.hop_give_up"), hop_give_ups);
  EXPECT_EQ(arrived, 0u);

  stack_.link->set_down(sender, false);
  stack_.overlay->send(from, to, 1.0, 1.0);
  stack_.sim.run_until(stack_.sim.now() + 10.0);
  EXPECT_EQ(arrived, 1u);
}

// ---- Oracle cross-check: distributed detector vs FailoverBinder ---------

TEST(FailureDetectorOracle, SameCampaignSameFinalBindings) {
  // Identical seed => identical deployment, identical initial binding, and
  // the same two leader node-ids to crash in both universes.
  emulation::PhysicalStack oracle_stack(kSide, kNodes, kRange, kSeed);
  emulation::PhysicalStack dist_stack(kSide, kNodes, kRange, kSeed);
  ASSERT_TRUE(oracle_stack.healthy());
  ASSERT_TRUE(dist_stack.healthy());
  oracle_stack.enable_arq();
  dist_stack.enable_arq();

  const GridCoord victims[] = {{1, 1}, {2, 3}};
  sim::FaultPlan plan;
  for (const GridCoord& c : victims) {
    sim::FaultEvent ev;
    ev.at = 10.0;
    ev.kind = sim::FaultKind::kCrash;
    ev.node = oracle_stack.overlay->bound_node(c);
    ASSERT_EQ(ev.node, dist_stack.overlay->bound_node(c));
    plan.events.push_back(ev);
  }

  oracle::FailoverBinder binder(*oracle_stack.arq, *oracle_stack.overlay);
  emulation::FailureDetector detector(*dist_stack.overlay);
  detector.start();

  const std::vector<GridCoord> cells =
      oracle_stack.overlay->grid().all_coords();
  const std::vector<double> values(cells.size(), 1.0);
  auto run_campaign = [&](emulation::PhysicalStack& stack) {
    sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
    injector.arm(plan);
    // Two deadline rounds: the first crosses the crashes (its give-ups are
    // what drives the oracle binder), the second runs on repaired routes.
    for (int round = 0; round < 2; ++round) {
      const double t0 = stack.sim.now();
      core::group_reduce_deadline(
          *stack.overlay, cells, {0, 0}, values, core::ReduceOp::kSum, 1.0,
          100.0, [](const core::PartialResult&) {});
      stack.sim.run_until(t0 + 110.0);
    }
    stack.sim.run_until(stack.sim.now() + 120.0);
  };
  run_campaign(oracle_stack);
  run_campaign(dist_stack);
  detector.stop();
  dist_stack.sim.run();
  oracle_stack.sim.run();

  EXPECT_EQ(binder.failovers(), 2u);
  EXPECT_EQ(detector.claims().size(), 2u);
  for (const GridCoord& c : cells) {
    EXPECT_EQ(oracle_stack.overlay->bound_node(c),
              dist_stack.overlay->bound_node(c))
        << "cell (" << c.row << "," << c.col
        << "): oracle and distributed failover disagree";
  }
}

// ---- Adversarial state corruption + self-stabilization ------------------

TEST_F(FailureDetectorTest, AuditsStayOffByDefault) {
  // audit_period defaults to 0: the audit machinery must add zero traffic,
  // so pre-existing seeded runs replay byte-identically.
  detector_->start();
  stack_.sim.run_until(stack_.sim.now() + 120.0);
  EXPECT_EQ(detector_->counters().get("fd.audit"), 0u);
  EXPECT_EQ(detector_->counters().get("fd.route_repair"), 0u);
}

class SelfStabilizationTest : public ::testing::Test {
 protected:
  SelfStabilizationTest() : stack_(kSide, kNodes, kRange, kSeed) {
    EXPECT_TRUE(stack_.healthy());
    stack_.enable_arq();
    emulation::FailureDetectorConfig cfg;
    cfg.audit_period = 15.0;
    detector_ =
        std::make_unique<emulation::FailureDetector>(*stack_.overlay, cfg);
  }

  ~SelfStabilizationTest() override {
    detector_->stop();
    stack_.sim.run();
  }

  void settle(double dt) { stack_.sim.run_until(stack_.sim.now() + dt); }

  emulation::PhysicalStack stack_;
  std::unique_ptr<emulation::FailureDetector> detector_;
};

TEST_F(SelfStabilizationTest, EveryCorruptionTargetReconverges) {
  detector_->start();
  settle(40.0);
  const GridCoord cells[] = {{1, 1}, {2, 3}, {3, 1}, {0, 2}};
  const sim::CorruptionTarget targets[] = {
      sim::CorruptionTarget::kEpoch, sim::CorruptionTarget::kLeader,
      sim::CorruptionTarget::kRoutes, sim::CorruptionTarget::kLeases};
  for (int i = 0; i < 4; ++i) {
    const net::NodeId victim = stack_.overlay->bound_node(cells[i]);
    ASSERT_NE(victim, net::kNoNode);
    EXPECT_TRUE(detector_->inject_corruption(victim, targets[i]));
  }
  EXPECT_EQ(detector_->counters().get("fd.corrupt"), 4u);
  settle(detector_->stabilization_bound());
  // From any of the four corrupted states the network re-converges: every
  // cell's live members agree on one (leader, epoch) and that leader is
  // live and self-believing.
  EXPECT_TRUE(detector_->unconverged_cells().empty());
  EXPECT_TRUE(detector_->split_brains().empty());
  EXPECT_GT(detector_->counters().get("fd.audit"), 0u);
}

TEST_F(SelfStabilizationTest, MemberEpochScrambleRejoinsLeaderView) {
  detector_->start();
  settle(40.0);
  const GridCoord cell{2, 2};
  const net::NodeId leader = stack_.overlay->bound_node(cell);
  ASSERT_NE(leader, net::kNoNode);
  net::NodeId member = net::kNoNode;
  for (const net::NodeId m : stack_.mapper->members(cell)) {
    if (m != leader) {
      member = m;
      break;
    }
  }
  ASSERT_NE(member, net::kNoNode);
  ASSERT_TRUE(
      detector_->inject_corruption(member, sim::CorruptionTarget::kEpoch));
  settle(detector_->stabilization_bound());
  // Regressed epochs are dragged forward by the pre-dedup kSync answer;
  // jumped epochs either propagate (the cell agrees at the higher epoch)
  // or force one election — both end with member and leader sharing a view.
  EXPECT_EQ(detector_->believed_leader(member),
            detector_->believed_leader(leader));
  EXPECT_EQ(detector_->epoch_view(member), detector_->epoch_view(leader));
  EXPECT_TRUE(detector_->unconverged_cells().empty());
}

TEST_F(SelfStabilizationTest, RouteScrambleIsRepairedByAuditRound) {
  detector_->start();
  settle(40.0);
  const net::NodeId victim = stack_.overlay->bound_node({1, 2});
  ASSERT_NE(victim, net::kNoNode);
  ASSERT_TRUE(
      detector_->inject_corruption(victim, sim::CorruptionTarget::kRoutes));
  settle(detector_->stabilization_bound());
  EXPECT_GT(detector_->counters().get("fd.route_repair"), 0u);
  EXPECT_TRUE(detector_->unconverged_cells().empty());
}

TEST_F(SelfStabilizationTest, InjectRefusesWhenStoppedOrDown) {
  // Before start() there is no live protocol state to scramble.
  EXPECT_FALSE(
      detector_->inject_corruption(5, sim::CorruptionTarget::kEpoch));
  detector_->start();
  settle(20.0);
  const net::NodeId victim = stack_.overlay->bound_node({3, 3});
  ASSERT_NE(victim, net::kNoNode);
  stack_.link->set_down(victim, true);
  EXPECT_FALSE(
      detector_->inject_corruption(victim, sim::CorruptionTarget::kLeases));
  EXPECT_EQ(detector_->counters().get("fd.corrupt"), 0u);
  stack_.link->set_down(victim, false);
}

// ---- Live membership: corruption, healing, orphan adoption --------------

class MembershipTest : public ::testing::Test {
 protected:
  MembershipTest() : stack_(kSide, kNodes, kRange, kSeed) {
    EXPECT_TRUE(stack_.healthy());
    stack_.enable_arq();
    emulation::FailureDetectorConfig cfg;
    cfg.audit_period = 15.0;
    cfg.membership = true;
    detector_ =
        std::make_unique<emulation::FailureDetector>(*stack_.overlay, cfg);
  }

  ~MembershipTest() override {
    detector_->stop();
    stack_.sim.run();
  }

  void settle(double dt) { stack_.sim.run_until(stack_.sim.now() + dt); }

  /// A vacancy victim: every member of `cell` except one non-leader
  /// follower with a radio edge into another cell. Returns the survivor
  /// (kNoNode when the cell cannot stage the scenario).
  net::NodeId stage_vacancy(const GridCoord& cell) {
    const net::NodeId leader = stack_.overlay->bound_node(cell);
    net::NodeId survivor = net::kNoNode;
    for (const net::NodeId m : stack_.mapper->members(cell)) {
      if (m == leader) continue;
      for (const net::NodeId v : stack_.graph->neighbors(m)) {
        if (!(stack_.mapper->cell_of(v) == cell)) {
          survivor = m;
          break;
        }
      }
      if (survivor != net::kNoNode) break;
    }
    if (survivor == net::kNoNode) return net::kNoNode;
    for (const net::NodeId m : stack_.mapper->members(cell)) {
      if (m != survivor) stack_.link->set_down(m, true);
    }
    return survivor;
  }

  emulation::PhysicalStack stack_;
  std::unique_ptr<emulation::FailureDetector> detector_;
};

TEST_F(MembershipTest, ViewSeedsFromGeometryAndStaysConsistent) {
  detector_->start();
  const emulation::MembershipView* view = detector_->membership_view();
  ASSERT_NE(view, nullptr);
  for (net::NodeId i = 0; i < stack_.graph->node_count(); ++i) {
    EXPECT_EQ(view->cell_of(i), stack_.mapper->cell_of(i));
    EXPECT_TRUE(view->roster_contains(stack_.mapper->cell_of(i), i));
  }
  settle(120.0);
  // A quiet network stays violation-free and adopts nobody.
  EXPECT_TRUE(detector_->membership_violations().empty());
  EXPECT_TRUE(detector_->adoptions().empty());
  EXPECT_EQ(detector_->adopt_binds(), 0u);
}

TEST_F(MembershipTest, MembershipCorruptionHealsWithinBound) {
  detector_->start();
  settle(40.0);
  // Scramble both flavors: a leader victim gets its roster corrupted, a
  // follower victim gets its cell belief defected.
  const net::NodeId leader = stack_.overlay->bound_node({1, 2});
  ASSERT_NE(leader, net::kNoNode);
  ASSERT_TRUE(detector_->inject_corruption(
      leader, sim::CorruptionTarget::kMembership));
  net::NodeId follower = net::kNoNode;
  const net::NodeId l33 = stack_.overlay->bound_node({3, 3});
  for (const net::NodeId m : stack_.mapper->members({3, 3})) {
    if (m != l33) {
      follower = m;
      break;
    }
  }
  ASSERT_NE(follower, net::kNoNode);
  ASSERT_TRUE(detector_->inject_corruption(
      follower, sim::CorruptionTarget::kMembership));
  EXPECT_EQ(detector_->counters().get("fd.corrupt"), 2u);
  settle(detector_->stabilization_bound());
  // Reconciliation (belief self-heal + audit-digest roster repair) pulls
  // every belief and roster back to the geometric truth.
  EXPECT_TRUE(detector_->membership_violations().empty());
  EXPECT_TRUE(detector_->unconverged_cells().empty());
  EXPECT_GT(detector_->counters().get("fd.member_heal") +
                detector_->counters().get("fd.roster_heal"),
            0u);
  const emulation::MembershipView* view = detector_->membership_view();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->cell_of(follower), stack_.mapper->cell_of(follower));
}

TEST_F(MembershipTest, VacancyTriggersAdoptionAndProxyBind) {
  detector_->start();
  settle(40.0);
  const GridCoord cell{2, 1};
  const net::NodeId survivor = stage_vacancy(cell);
  ASSERT_NE(survivor, net::kNoNode)
      << "seeded deployment cannot stage a vacancy at (2,1)";
  settle(detector_->stabilization_bound());
  // The orphan defected to a neighboring cell...
  ASSERT_FALSE(detector_->adoptions().empty());
  bool survivor_adopted = false;
  for (const emulation::AdoptionRecord& a : detector_->adoptions()) {
    if (a.node == survivor) {
      survivor_adopted = true;
      EXPECT_EQ(a.from, cell);
      EXPECT_NE(a.to, cell);
    }
  }
  EXPECT_TRUE(survivor_adopted);
  const emulation::MembershipView* view = detector_->membership_view();
  ASSERT_NE(view, nullptr);
  EXPECT_NE(view->cell_of(survivor), cell);
  // ...and the vacated cell is served by a live out-of-cell proxy leader,
  // so the deployment has zero dark cells.
  EXPECT_GE(detector_->adopt_binds(), 1u);
  const net::NodeId proxy = stack_.overlay->bound_node(cell);
  ASSERT_NE(proxy, net::kNoNode);
  EXPECT_FALSE(stack_.link->is_down(proxy));
  EXPECT_TRUE(detector_->membership_violations().empty());
}

TEST_F(MembershipTest, VacantCellReportedMissingBeforeAdoption) {
  // Regression: a deadline reduce racing a fresh vacancy must close by
  // timeout with the dead cell in PartialResult::missing() — not hang and
  // not silently fold a value for a cell nobody serves. After the
  // stabilization bound the adoption + proxy re-bind restore coverage and
  // the same reduce completes.
  detector_->start();
  settle(40.0);
  const GridCoord cell{1, 3};
  ASSERT_NE(stage_vacancy(cell), net::kNoNode)
      << "seeded deployment cannot stage a vacancy at (1,3)";

  const std::vector<GridCoord> cells = stack_.overlay->grid().all_coords();
  const std::vector<double> values(cells.size(), 1.0);
  std::vector<core::PartialResult> results;
  const double t0 = stack_.sim.now();
  core::group_reduce_deadline(
      *stack_.overlay, cells, {0, 0}, values, core::ReduceOp::kSum, 1.0, 30.0,
      [&results](const core::PartialResult& p) { results.push_back(p); });
  settle(40.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.front().deadline_hit);
  const std::vector<GridCoord> missing = results.front().missing();
  EXPECT_NE(std::find(missing.begin(), missing.end(), cell), missing.end())
      << "the vacated cell must be on the degraded round's suspect list";

  // Post-adoption the proxy answers for the vacated virtual node.
  settle(detector_->stabilization_bound());
  results.clear();
  core::group_reduce_deadline(
      *stack_.overlay, cells, {0, 0}, values, core::ReduceOp::kSum, 1.0,
      200.0,
      [&results](const core::PartialResult& p) { results.push_back(p); });
  settle(210.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.front().complete())
      << "adoption + proxy re-bind must restore full coverage; missing "
      << results.front().missing().size() << " cells";
  (void)t0;
}

TEST(FailureDetectorFrames, WarmDetectorAllocatesFarLessOftenThanItSends) {
  // The soak's shape: eight nodes per cell, membership and audits on, over
  // ARQ. A flood boxes its frame's body once and sends each neighbour a
  // handle that std::any holds in place, and a forwarded beat or audit
  // passes on the body that arrived, so a warm detector allocates per
  // flood, not per frame sent.
  emulation::PhysicalStack stack(kSide, 8 * kSide * kSide, kRange, kSeed);
  ASSERT_TRUE(stack.healthy());
  stack.enable_arq();
  emulation::FailureDetectorConfig cfg;
  cfg.audit_period = 15.0;
  cfg.membership = true;
  emulation::FailureDetector detector(*stack.overlay, cfg);
  detector.start();
  stack.sim.run_until(stack.sim.now() + 60.0);
  const std::uint64_t sent = stack.arq->counters().get("arq.send");
  const std::uint64_t before = obs::global_alloc_stats().count;
  stack.sim.run_until(stack.sim.now() + 30.0);
  const std::uint64_t allocs = obs::global_alloc_stats().count - before;
  const std::uint64_t sends = stack.arq->counters().get("arq.send") - sent;
  EXPECT_GT(sends, 1000u);
  EXPECT_LT(allocs * 10, sends) << allocs << " allocations, " << sends
                                << " sends";
  detector.stop();
  stack.sim.run();
}

// ---- Epoch-stale contributions rejected by deadline collectives ---------

TEST(BindingEpochs, StaleContributionRejected) {
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  ASSERT_TRUE(stack.healthy());
  stack.enable_arq();

  const std::vector<GridCoord> cells = stack.overlay->grid().all_coords();
  const std::vector<double> values(cells.size(), 1.0);
  const GridCoord shifted{2, 2};

  std::vector<core::PartialResult> results;
  const double t0 = stack.sim.now();
  core::group_reduce_deadline(
      *stack.overlay, cells, {0, 0}, values, core::ReduceOp::kSum, 1.0, 80.0,
      [&results](const core::PartialResult& p) { results.push_back(p); });
  // Bump the member's binding epoch while its contribution is in flight:
  // the value was stamped with the old epoch, so the leader must reject it
  // (a deposed leader's value would double-count after a re-bind).
  stack.sim.schedule_in(0.5, [&stack, shifted] {
    stack.overlay->rebind(shifted, stack.overlay->bound_node(shifted),
                          stack.overlay->binding_epoch(shifted) + 1);
  });
  stack.sim.run_until(t0 + 90.0);
  stack.sim.run();

  ASSERT_EQ(results.size(), 1u);
  const core::PartialResult& r = results.front();
  EXPECT_GE(r.stale_rejected, 1u);
  EXPECT_TRUE(r.deadline_hit);
  bool shifted_contributed = false;
  for (const GridCoord& c : r.contributors) {
    if (c.row == shifted.row && c.col == shifted.col) {
      shifted_contributed = true;
    }
  }
  EXPECT_FALSE(shifted_contributed)
      << "the stale-epoch contribution must not be folded";
  EXPECT_DOUBLE_EQ(r.value, static_cast<double>(r.contributors.size()));
}

}  // namespace
}  // namespace wsn
