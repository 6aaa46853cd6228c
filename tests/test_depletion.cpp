// Energy-exhaustion fault model (sim/depletion_monitor.h) and proactive
// leader handoff (emulation/failure_detector.h): a finite battery watched
// by the DepletionMonitor becomes a deterministic, exactly-once-traced
// death at the crossing tick; a leader below the handoff low-water mark
// retires to its best-supplied member strictly before dying; and a handoff
// racing a deadline collective bumps the binding epoch mid-reduce so the
// deposed leader's in-flight contribution lands in stale_rejected — with
// the whole race byte-identical under replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/primitives.h"
#include "emulation/failure_detector.h"
#include "emulation/physical_stack.h"
#include "obs/analyze/check.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/depletion_monitor.h"
#include "tests/trace_helpers.h"

namespace wsn {
namespace {

using core::GridCoord;

constexpr std::size_t kSide = 4;
constexpr std::size_t kNodes = 60;
constexpr double kRange = 1.3;
constexpr std::uint64_t kSeed = 7;

TEST(DepletionMonitor, BudgetCrossingBecomesTracedDeath) {
  obs::RingBufferSink sink(1u << 20);
  obs::ScopedTrace capture(sink, obs::kAllCategories);
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  ASSERT_TRUE(stack.healthy());
  stack.enable_arq();
  sim::DepletionMonitor monitor(stack.sim, *stack.link);
  monitor.arm();
  emulation::FailureDetector detector(*stack.overlay);

  const GridCoord cell{1, 1};
  const net::NodeId leader = stack.overlay->bound_node(cell);
  ASSERT_NE(leader, net::kNoNode);
  // ~30 units of runway: heartbeat flooding alone drains a busy leader in
  // well under a minute at this stack density.
  stack.ledger->set_budget(leader, stack.ledger->spent(leader) + 30.0);

  detector.start();
  stack.sim.run_until(stack.sim.now() + 240.0);
  detector.stop();
  stack.sim.run();

  ASSERT_EQ(monitor.deaths().size(), 1u);
  const sim::DepletionRecord& death = monitor.deaths().front();
  EXPECT_EQ(death.node, leader);
  EXPECT_GE(death.spent, death.budget);
  EXPECT_TRUE(stack.link->is_down(leader));
  EXPECT_TRUE(stack.ledger->depleted(leader));
  EXPECT_EQ(monitor.alive_count(), kNodes - 1);

  // Exactly one energy.depleted event, and the full trace oracle is clean
  // (the capture began before the stack, so energy balances too): no frame
  // from the dead node later than its crossing tick.
  const auto events = sink.events();
  std::size_t depleted_events = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "energy.depleted") ++depleted_events;
  }
  EXPECT_EQ(depleted_events, 1u);
  obs::MetricsRegistry registry;
  stack.register_metrics(registry);
  const obs::analyze::JsonValue snapshot =
      obs::analyze::parse_json(registry.to_json());
  const auto report = testing_helpers::check_events(events, &snapshot);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.events_seen, events.size());

  // Registered instruments agree with the monitor.
  monitor.register_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("energy.depleted_nodes"), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("energy.alive_nodes"),
                   static_cast<double>(kNodes - 1));
  // One finite budget -> one histogram sample (residual clamped >= 0).
  EXPECT_EQ(monitor.residual_histogram().count(), 1u);
}

TEST(ProactiveHandoff, LeaderRetiresBeforeItsBatteryDies) {
  obs::RingBufferSink sink(1u << 20);
  obs::ScopedTrace capture(sink, obs::kAllCategories);
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  ASSERT_TRUE(stack.healthy());
  stack.enable_arq();
  sim::DepletionMonitor monitor(stack.sim, *stack.link);
  monitor.arm();

  emulation::FailureDetectorConfig cfg;
  // Reserve below the mark must absorb the handoff's own kElect flood
  // storm plus the drain until the claim commits (chaos_soak.cpp).
  cfg.handoff_low_water = 48.0;
  emulation::FailureDetector detector(*stack.overlay, cfg);

  const GridCoord cell{1, 1};
  const net::NodeId leader = stack.overlay->bound_node(cell);
  ASSERT_NE(leader, net::kNoNode);
  stack.ledger->set_budget(leader, stack.ledger->spent(leader) + 80.0);

  detector.start();
  stack.sim.run_until(stack.sim.now() + 400.0);

  // The handoff claim precedes the battery death, deposing the leader with
  // zero leaderless time; the successor is a different cell member.
  ASSERT_EQ(monitor.deaths().size(), 1u);
  ASSERT_GE(detector.claims().size(), 1u);
  const emulation::ClaimRecord& claim = detector.claims().front();
  EXPECT_TRUE(claim.planned);
  EXPECT_EQ(claim.old_leader, leader);
  EXPECT_NE(claim.winner, leader);
  EXPECT_EQ(claim.cell, cell);
  EXPECT_LT(claim.at, monitor.deaths().front().at);
  EXPECT_GE(claim.epoch, 1u);
  EXPECT_EQ(detector.planned_handoffs(), detector.claims().size());
  EXPECT_GE(detector.counters().get("fd.handoff"), 1u);
  EXPECT_TRUE(detector.split_brains().empty());
  // The overlay now routes the cell at the successor.
  EXPECT_EQ(stack.overlay->bound_node(cell), claim.winner);

  detector.stop();
  stack.sim.run();
  // Depletion, failure-detection and every other trace invariant hold.
  obs::MetricsRegistry registry;
  stack.register_metrics(registry);
  const obs::analyze::JsonValue snapshot =
      obs::analyze::parse_json(registry.to_json());
  const auto report = testing_helpers::check_events(sink.events(), &snapshot);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues[0]);
}

TEST(ProactiveHandoff, RequestHandoffElectsBestResidualCandidate) {
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  ASSERT_TRUE(stack.healthy());
  stack.enable_arq();

  emulation::FailureDetectorConfig cfg;
  cfg.handoff_low_water = 10.0;
  emulation::FailureDetector detector(*stack.overlay, cfg);
  detector.start();
  stack.sim.run_until(stack.sim.now() + 20.0);

  // Give every member a finite budget so residuals are comparable, with
  // one clearly best-supplied member: the handoff must pick exactly it.
  const GridCoord cell{1, 1};
  const net::NodeId leader = stack.overlay->bound_node(cell);
  net::NodeId best = net::kNoNode;
  for (const net::NodeId m : stack.mapper->members(cell)) {
    if (m == leader) {
      stack.ledger->set_budget(m, stack.ledger->spent(m) + 200.0);
    } else if (best == net::kNoNode) {
      best = m;
      stack.ledger->set_budget(m, stack.ledger->spent(m) + 400.0);
    } else {
      stack.ledger->set_budget(m, stack.ledger->spent(m) + 50.0);
    }
  }
  ASSERT_NE(best, net::kNoNode);

  ASSERT_TRUE(detector.request_handoff(cell));
  stack.sim.run_until(stack.sim.now() + 30.0);

  ASSERT_GE(detector.claims().size(), 1u);
  const emulation::ClaimRecord& claim = detector.claims().front();
  EXPECT_TRUE(claim.planned);
  EXPECT_EQ(claim.old_leader, leader);
  EXPECT_EQ(claim.winner, best) << "highest residual energy must win";
  detector.stop();
  stack.sim.run();
}

/// One full run of the handoff-vs-deadline-collective race, returning the
/// byte-exact JSONL capture plus the partial result. The handoff deposes a
/// far cell's leader while its contribution is still routing toward the
/// collector, so the stale-epoch rejection is exercised end to end.
std::string run_handoff_race(core::PartialResult* out) {
  obs::RingBufferSink sink(1u << 20);
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  EXPECT_TRUE(stack.healthy());
  stack.enable_arq();

  emulation::FailureDetectorConfig cfg;
  cfg.handoff_low_water = 10.0;
  cfg.election_timeout = 1.0;  // commit the claim while routing is in flight
  emulation::FailureDetector detector(*stack.overlay, cfg);
  detector.start();
  stack.sim.run_until(stack.sim.now() + 10.0);

  // Capture only the race (setup and detector spin-up already ran).
  obs::ScopedTrace capture(sink, obs::kAllCategories);

  const GridCoord victim{3, 3};  // farthest from the collector: in flight
                                 // the longest
  const std::vector<GridCoord> cells = stack.overlay->grid().all_coords();
  const std::vector<double> values(cells.size(), 1.0);
  std::vector<core::PartialResult> results;
  const double t0 = stack.sim.now();
  core::group_reduce_deadline(
      *stack.overlay, cells, {0, 0}, values, core::ReduceOp::kSum, 1.0, 60.0,
      [&results](const core::PartialResult& p) { results.push_back(p); });
  stack.sim.schedule_in(0.1, [&detector, victim] {
    EXPECT_TRUE(detector.request_handoff(victim));
  });
  stack.sim.run_until(t0 + 70.0);
  detector.stop();
  stack.sim.run();

  EXPECT_EQ(results.size(), 1u);
  if (!results.empty()) *out = results.front();
  std::ostringstream text;
  obs::write_jsonl(sink.events(), text);
  return text.str();
}

TEST(ProactiveHandoff, RacingDeadlineCollectiveRejectsStaleContribution) {
  core::PartialResult first;
  const std::string trace_a = run_handoff_race(&first);

  // The deposed leader's in-flight contribution must land in
  // stale_rejected, not in the fold.
  EXPECT_GE(first.stale_rejected, 1u);
  bool victim_contributed = false;
  for (const GridCoord& c : first.contributors) {
    if (c.row == 3 && c.col == 3) victim_contributed = true;
  }
  EXPECT_FALSE(victim_contributed)
      << "the stale-epoch contribution must not be folded";
  EXPECT_DOUBLE_EQ(first.value, static_cast<double>(first.contributors.size()));

  // Same seed, same race, byte-identical trace: the depletion fault model
  // keeps the simulation's determinism contract.
  core::PartialResult second;
  const std::string trace_b = run_handoff_race(&second);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(first.stale_rejected, second.stale_rejected);
}

}  // namespace
}  // namespace wsn
