// Robustness layer: ReliableChannel ARQ, fault-injection campaigns,
// deadline-bounded (gracefully degrading) collectives, and automatic
// leader failover. The flagship test runs the canned campaign from
// ISSUE/ROADMAP: a loss burst plus timed crashes (including a level-2
// leader) on a physical 8x8 deployment, and demands that the grid-wide
// sum completes partially with an exact contributor list, that the
// crashed leaders are re-bound automatically, and that the captured
// trace passes the analyzer's reliability invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/primitives.h"
#include "core/virtual_network.h"
#include "emulation/leader_binding.h"
#include "emulation/physical_stack.h"
#include "net/reliable_link.h"
#include "obs/analyze/check.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "tests/failover_oracle.h"
#include "tests/trace_helpers.h"

namespace wsn {
namespace {

using core::GridCoord;

// ---- ARQ unit tests on a 3-node line (0)-(1)-(2), range 1.5 -------------

class ArqTest : public ::testing::Test {
 protected:
  explicit ArqTest(net::ReliableConfig cfg = {})
      : sim_(42),
        graph_({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.5),
        ledger_(3),
        link_(sim_, graph_, net::RadioModel{1.5, 1.0, 1.0, 1.0},
              net::CpuModel{}, ledger_),
        chan_(link_, cfg) {}

  sim::Simulator sim_;
  net::NetworkGraph graph_;
  net::EnergyLedger ledger_;
  net::LinkLayer link_;
  net::ReliableChannel chan_;
};

TEST_F(ArqTest, DeliversAndAcksOnCleanLink) {
  std::vector<double> got;
  chan_.set_receiver(1, [&](const net::Packet& pkt) {
    got.push_back(std::any_cast<double>(pkt.payload));
  });
  chan_.send(0, 1, 42.0);
  sim_.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42.0);
  EXPECT_EQ(chan_.counters().get("arq.send"), 1u);
  EXPECT_EQ(chan_.counters().get("arq.delivered"), 1u);
  EXPECT_EQ(chan_.counters().get("arq.ack"), 1u);
  EXPECT_EQ(chan_.counters().get("arq.retransmit"), 0u);
  EXPECT_EQ(chan_.counters().get("arq.give_up"), 0u);
  EXPECT_EQ(chan_.in_flight(), 0u);
}

TEST_F(ArqTest, CleanHopAllocatesNothing) {
  // The wire frame is an 8-byte tag that std::any holds in place, and the
  // link's delivery and the retransmit timer fit the kernel's in-place
  // callback storage, so a clean exchange (send, deliver, ack) allocates
  // nothing once the pair's record and the kernel's slots exist. The few
  // allowed are queue storage blocks turning over.
  std::uint64_t sum = 0;
  chan_.set_receiver(1, [&](const net::Packet& pkt) {
    sum += std::any_cast<std::uint32_t>(pkt.payload);
  });
  chan_.send(0, 1, std::uint32_t{0});  // warm-up
  sim_.run();

  constexpr std::uint32_t kExchanges = 100;
  const std::uint64_t before = obs::global_alloc_stats().count;
  for (std::uint32_t i = 1; i <= kExchanges; ++i) {
    chan_.send(0, 1, i);
    sim_.run();
  }
  const std::uint64_t allocs = obs::global_alloc_stats().count - before;

  EXPECT_EQ(sum, kExchanges * (kExchanges + 1) / 2);
  EXPECT_EQ(chan_.counters().get("arq.ack"), kExchanges + 1);
  EXPECT_EQ(chan_.counters().get("arq.retransmit"), 0u);
  EXPECT_LT(allocs, 10u);
}

class ArqLossTest : public ArqTest {
 protected:
  static net::ReliableConfig lossy_cfg() {
    net::ReliableConfig cfg;
    cfg.max_retries = 8;  // enough budget that loss 0.4 rarely exhausts it
    return cfg;
  }
  ArqLossTest() : ArqTest(lossy_cfg()) {}
};

TEST_F(ArqLossTest, EveryFrameDeliveredOnceOrGivenUpUnderLoss) {
  link_.set_loss_probability(0.4);
  std::map<double, int> seen;
  chan_.set_receiver(1, [&](const net::Packet& pkt) {
    ++seen[std::any_cast<double>(pkt.payload)];
  });
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    chan_.send(0, 1, static_cast<double>(i));
  }
  sim_.run();

  // The ARQ contract: each frame reaches the upper layer at most once, and
  // every frame is either delivered or reported as a give-up — never
  // silently lost. (Both can happen to one frame: data delivered but every
  // ack lost exhausts the sender's budget, the classic stop-and-wait
  // ambiguity.)
  for (const auto& [value, count] : seen) EXPECT_EQ(count, 1) << value;
  EXPECT_GE(seen.size() + chan_.counters().get("arq.give_up"),
            static_cast<std::size_t>(kFrames));
  EXPECT_LE(seen.size(), static_cast<std::size_t>(kFrames));
  EXPECT_GT(chan_.counters().get("arq.retransmit"), 0u);
  EXPECT_EQ(chan_.in_flight(), 0u);
}

class ArqGiveUpTest : public ArqTest {
 protected:
  static net::ReliableConfig tight_cfg() {
    net::ReliableConfig cfg;
    cfg.max_retries = 2;
    return cfg;
  }
  ArqGiveUpTest() : ArqTest(tight_cfg()) {}
};

TEST_F(ArqGiveUpTest, GivesUpOnDeadReceiverAfterRetryBudget) {
  link_.set_down(1, true);
  struct GiveUp {
    net::NodeId from, to;
    std::uint64_t seq;
    std::uint32_t attempts;
  };
  std::vector<GiveUp> give_ups;
  chan_.set_on_give_up([&](net::NodeId from, net::NodeId to, std::uint64_t seq,
                           std::uint32_t attempts) {
    give_ups.push_back({from, to, seq, attempts});
  });
  bool delivered = false;
  chan_.set_receiver(1, [&](const net::Packet&) { delivered = true; });
  chan_.send(0, 1, 7.0);
  sim_.run();

  EXPECT_FALSE(delivered);
  ASSERT_EQ(give_ups.size(), 1u);
  EXPECT_EQ(give_ups[0].from, 0u);
  EXPECT_EQ(give_ups[0].to, 1u);
  // 1 initial transmission + max_retries retransmissions.
  EXPECT_EQ(give_ups[0].attempts, 3u);
  EXPECT_EQ(chan_.counters().get("arq.retransmit"), 2u);
  EXPECT_EQ(chan_.counters().get("arq.give_up"), 1u);
  EXPECT_EQ(chan_.in_flight(), 0u);
}

TEST_F(ArqGiveUpTest, DeadSenderGivesUpWithoutRetransmitting) {
  link_.set_down(0, true);
  std::uint32_t attempts_seen = 0;
  chan_.set_on_give_up(
      [&](net::NodeId, net::NodeId, std::uint64_t, std::uint32_t attempts) {
        attempts_seen = attempts;
      });
  chan_.send(0, 1, 7.0);
  sim_.run();

  // A crashed sender cannot transmit; its first timeout resolves to an
  // immediate give-up rather than a futile retry loop.
  EXPECT_EQ(attempts_seen, 1u);
  EXPECT_EQ(chan_.counters().get("arq.retransmit"), 0u);
  EXPECT_EQ(chan_.counters().get("arq.give_up"), 1u);
}

// ---- FaultPlan JSON ------------------------------------------------------

TEST(FaultPlanJson, ParsesEveryKind) {
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 5.0, "kind": "crash",   "node": 12},
    {"at": 6.0, "kind": "crash",   "cell": {"row": 0, "col": 4}},
    {"at": 9.0, "kind": "recover", "node": 12},
    {"at": 3.0, "kind": "loss_burst", "loss": 0.2, "duration": 4.0},
    {"at": 7.0, "kind": "region_outage",
     "row0": 1, "col0": 1, "row1": 2, "col1": 3,
     "duration": 5.0}
  ]})");
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, sim::FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].node, 12u);
  EXPECT_EQ(plan.events[1].kind, sim::FaultKind::kCrash);
  EXPECT_EQ(plan.events[1].cell.row, 0);
  EXPECT_EQ(plan.events[1].cell.col, 4);
  EXPECT_EQ(plan.events[2].kind, sim::FaultKind::kRecover);
  EXPECT_EQ(plan.events[3].kind, sim::FaultKind::kLossBurst);
  EXPECT_EQ(plan.events[3].loss, 0.2);
  EXPECT_EQ(plan.events[3].duration, 4.0);
  EXPECT_EQ(plan.events[4].kind, sim::FaultKind::kRegionOutage);
  EXPECT_EQ(plan.events[4].row0, 1);
  EXPECT_EQ(plan.events[4].col1, 3);
  EXPECT_EQ(plan.events[4].duration, 5.0);
}

// Every rejection names the line and event index of the offender, so a
// hand-edited campaign file points back at the broken line, not just "bad
// plan". (No gmock in this repo — match with std::string::find.)
std::string rejection_message(const std::string& text) {
  try {
    (void)sim::FaultPlan::from_json(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(FaultPlanJson, RejectsUnknownKind) {
  EXPECT_THROW(sim::FaultPlan::from_json(
                   R"({"events": [{"at": 1.0, "kind": "meteor"}]})"),
               std::runtime_error);
}

TEST(FaultPlanJson, RejectsMalformedInput) {
  EXPECT_THROW(sim::FaultPlan::from_json("not json"), std::runtime_error);
  EXPECT_THROW(sim::FaultPlan::from_json(R"({"no_events": true})"),
               std::runtime_error);
  // A node id is an integer below kNoNode, never a double cast to NodeId.
  for (const std::string node : {"1e300", "4294967295", "3.5"}) {
    const std::string msg = rejection_message(
        "{\"events\": [\n"
        "  {\"at\": 1.0, \"kind\": \"crash\", \"node\": " + node + "}\n"
        "]}");
    EXPECT_NE(msg.find("line 2, event #1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("is not an integer below"), std::string::npos) << msg;
  }
  // Cell and rectangle bounds are int32 integers.
  std::string msg = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "state_corruption",
                      "cell": {"row": 1e300, "col": 0}, "target": "epoch"}]})");
  EXPECT_NE(msg.find("row 1.0000000000000001e+300 is not an integer"),
            std::string::npos)
      << msg;
  msg = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "region_outage", "row0": 0,
                      "col0": 0, "row1": 0.5, "col1": 1, "duration": 2}]})");
  EXPECT_NE(msg.find("row1 0.5 is not an integer"), std::string::npos) << msg;
}

TEST(FaultPlanJson, MalformedNumbersNameTheirLine) {
  // Each once parsed as the prefix strtod/strtoull accepted: "node": --5
  // crashed node 0 and "at": 1-2 fired at t=1.
  for (const std::string field :
       {R"("node": --5)", R"("node": 1-2)", R"("node": 1.2.3)",
        R"("node": 1e)", R"("node": 18446744073709551616)",
        R"("node": 3, "at": 1-2)"}) {
    const std::string msg = rejection_message(
        "{\"events\": [\n"
        "  {\"kind\": \"crash\",\n"
        "   " + field + "}\n"
        "]}");
    EXPECT_EQ(msg.rfind("fault plan line 3: ", 0), 0u)
        << field << " -> " << msg;
  }
}

TEST(FaultPlanJson, WrongTypedFieldsNameTheirLine) {
  // "at": "5" once failed with "json: value is not a number" and no line.
  EXPECT_EQ(rejection_message(
                "{\"events\": [\n"
                "  {\"at\": \"5\", \"kind\": \"crash\", \"node\": 3}\n"
                "]}"),
            "fault plan line 2, event #1: \"at\" is not a number");
  EXPECT_EQ(rejection_message(
                "{\"events\": [\n"
                "  {\"at\": 1, \"kind\": \"crash\", \"node\": 3},\n"
                "  {\"at\": 5, \"kind\": \"crash\",\n"
                "   \"cell\": {\"col\": 0,\n"
                "            \"row\": \"a\"}}\n"
                "]}"),
            "fault plan line 5, event #2: \"row\" is not a number");
  EXPECT_EQ(rejection_message(
                "{\"events\": [\n"
                "  {\"at\": 5, \"kind\": \"crash\", \"cell\": 7}\n"
                "]}"),
            "fault plan line 2, event #1: \"cell\" is not an object");
  EXPECT_EQ(rejection_message("{\"events\": [\n  [1]\n]}"),
            "fault plan line 2, event #1: event is not an object");
  EXPECT_EQ(rejection_message("[\n{\"events\": []}]"),
            "fault plan line 1: missing \"events\" array");
  EXPECT_EQ(rejection_message("{\n\"events\": {}}"),
            "fault plan line 2: missing \"events\" array");
}

TEST(FaultPlanJson, SyntaxErrorsNameTheirLine) {
  // A missing comma on line 3.
  EXPECT_EQ(rejection_message(
                "{\"events\": [\n"
                "  {\"at\": 1, \"kind\": \"crash\", \"node\": 3},\n"
                "  {\"at\": 2 \"kind\": \"recover\", \"node\": 3}\n"
                "]}"),
            "fault plan line 3: expected '}'");
  EXPECT_EQ(rejection_message("{\"events\": [\n\n  {\"at\": 1,"),
            "fault plan line 3: unexpected end of input, expected '\"'");
}

TEST(FaultPlanJson, UnknownKindErrorNamesLineAndEvent) {
  const std::string msg = rejection_message(
      "{\"events\": [\n"
      "  {\"at\": 1.0, \"kind\": \"crash\", \"node\": 3},\n"
      "  {\"at\": 2.0, \"kind\": \"meteor\"}\n"
      "]}");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("event #2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("meteor"), std::string::npos) << msg;
}

TEST(FaultPlanJson, RejectsNegativeTimesAndDurations) {
  const std::string neg_at = rejection_message(
      R"({"events": [{"at": -1.0, "kind": "crash", "node": 3}]})");
  EXPECT_NE(neg_at.find("negative time"), std::string::npos) << neg_at;
  EXPECT_NE(neg_at.find("event #1"), std::string::npos) << neg_at;

  const std::string neg_dur = rejection_message(
      R"({"events": [
        {"at": 1.0, "kind": "loss_burst", "loss": 0.2, "duration": -4.0}
      ]})");
  EXPECT_NE(neg_dur.find("negative duration"), std::string::npos) << neg_dur;
}

TEST(FaultPlanJson, RejectsCrashWithoutRecoverOverlap) {
  // Node 12 crashes at 5 and again at 8 with no recover between: the second
  // crash can never fire against a live node, so the plan is a typo.
  const std::string msg = rejection_message(
      "{\"events\": [\n"
      "  {\"at\": 5.0, \"kind\": \"crash\", \"node\": 12},\n"
      "  {\"at\": 8.0, \"kind\": \"crash\", \"node\": 12}\n"
      "]}");
  EXPECT_NE(msg.find("overlaps an earlier crash"), std::string::npos) << msg;
  EXPECT_NE(msg.find("node 12"), std::string::npos) << msg;

  // With a recover between the crashes, the same pair is legal.
  EXPECT_NO_THROW(sim::FaultPlan::from_json(R"({"events": [
    {"at": 5.0, "kind": "crash",   "node": 12},
    {"at": 6.0, "kind": "recover", "node": 12},
    {"at": 8.0, "kind": "crash",   "node": 12}
  ]})"));
}

TEST(FaultPlanJson, ParsesSetBudgetForms) {
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 2.0, "kind": "set_budget", "node": 7, "budget": 40.0},
    {"at": 3.0, "kind": "set_budget", "cell": {"row": 1, "col": 2},
     "headroom": 25.0}
  ]})");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, sim::FaultKind::kSetBudget);
  EXPECT_EQ(plan.events[0].node, 7u);
  EXPECT_DOUBLE_EQ(plan.events[0].budget, 40.0);
  EXPECT_LT(plan.events[0].headroom, 0.0);  // unset
  EXPECT_EQ(plan.events[1].kind, sim::FaultKind::kSetBudget);
  EXPECT_EQ(plan.events[1].cell.row, 1);
  EXPECT_EQ(plan.events[1].cell.col, 2);
  EXPECT_DOUBLE_EQ(plan.events[1].headroom, 25.0);
  EXPECT_LT(plan.events[1].budget, 0.0);  // unset
}

TEST(FaultPlanJson, SetBudgetRejectionsNameLineAndEvent) {
  // Neither budget nor headroom.
  std::string msg = rejection_message(
      "{\"events\": [\n"
      "  {\"at\": 1.0, \"kind\": \"set_budget\", \"node\": 3}\n"
      "]}");
  EXPECT_NE(msg.find("exactly one of"), std::string::npos) << msg;
  EXPECT_NE(msg.find("event #1"), std::string::npos) << msg;

  // Both budget and headroom.
  msg = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "set_budget", "node": 3,
                      "budget": 5.0, "headroom": 5.0}]})");
  EXPECT_NE(msg.find("exactly one of"), std::string::npos) << msg;

  // No target at all.
  msg = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "set_budget", "budget": 5.0}]})");
  EXPECT_NE(msg.find("\"node\" or \"cell\""), std::string::npos) << msg;

  // Negative values.
  msg = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "set_budget", "node": 3,
                      "budget": -5.0}]})");
  EXPECT_NE(msg.find("negative budget"), std::string::npos) << msg;
  msg = rejection_message(
      "{\"events\": [\n"
      "  {\"at\": 1.0, \"kind\": \"crash\", \"node\": 2},\n"
      "  {\"at\": 1.0, \"kind\": \"set_budget\", \"node\": 3,\n"
      "   \"headroom\": -2.0}\n"
      "]}");
  EXPECT_NE(msg.find("negative headroom"), std::string::npos) << msg;
  EXPECT_NE(msg.find("event #2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(FaultPlanJson, SetBudgetRoundTripsAndExtendsDownHorizon) {
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 2.0, "kind": "set_budget", "node": 7, "budget": 40.0},
    {"at": 50.0, "kind": "set_budget", "cell": {"row": 0, "col": 0},
     "headroom": 25.0}
  ]})");
  const std::string serialized = plan.to_json();
  const auto reparsed = sim::FaultPlan::from_json(serialized);
  ASSERT_EQ(reparsed.events.size(), 2u);
  EXPECT_EQ(reparsed.to_json(), serialized);
  EXPECT_DOUBLE_EQ(reparsed.events[0].budget, 40.0);
  EXPECT_DOUBLE_EQ(reparsed.events[1].headroom, 25.0);
  // A set_budget starts a (delayed) death, so the settle horizon must cover
  // its firing time — the drain to zero is the campaign's job to wait out.
  EXPECT_GE(plan.down_horizon(), 50.0);
}

TEST(FaultPlanFire, SetBudgetHeadroomResolvesAtFireTime) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4), core::CostModel{});
  // Pre-spend some energy so "headroom" has something to resolve against.
  vnet.ledger().charge(5, net::EnergyUse::kCompute, 12.0);
  sim::FaultInjector injector(sim, vnet);
  injector.arm(sim::FaultPlan::from_json(R"({"events": [
    {"at": 1.0, "kind": "set_budget", "node": 5, "headroom": 25.0},
    {"at": 1.0, "kind": "set_budget", "node": 6, "budget": 40.0}
  ]})"));
  sim.run();
  // headroom => budget == spend-at-fire-time + 25; absolute stays absolute.
  EXPECT_DOUBLE_EQ(vnet.ledger().budget(5), 37.0);
  EXPECT_DOUBLE_EQ(vnet.ledger().remaining(5), 25.0);
  EXPECT_DOUBLE_EQ(vnet.ledger().budget(6), 40.0);
  EXPECT_EQ(injector.counters().get("fault.set_budget"), 2u);
}

TEST(FaultPlanFire, CellTargetedSetBudgetUsesLeaderLookupAtFireTime) {
  emulation::PhysicalStack stack(4, 60, 1.3, 7);
  ASSERT_TRUE(stack.healthy());
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  injector.set_leader_lookup(
      [&](const GridCoord& c) { return stack.overlay->bound_node(c); });
  const net::NodeId leader = stack.overlay->bound_node({1, 1});
  ASSERT_NE(leader, net::kNoNode);
  injector.arm(sim::FaultPlan::from_json(R"({"events": [
    {"at": 2.0, "kind": "set_budget", "cell": {"row": 1, "col": 1},
     "headroom": 30.0}
  ]})"));
  stack.sim.run();
  EXPECT_TRUE(std::isfinite(stack.ledger->budget(leader)));
  EXPECT_GE(stack.ledger->budget(leader), 30.0);
  // Other nodes keep infinite batteries.
  const net::NodeId other = stack.overlay->bound_node({0, 0});
  EXPECT_FALSE(std::isfinite(stack.ledger->budget(other)));
}

// Arming checks every node- or cell-targeted event against the network
// before it schedules any: an unknown node would index past the link's
// per-node state when it fires, an unknown cell past the binding's.
TEST(FaultPlanFire, ArmRejectsTargetsOutsideTheNetwork) {
  emulation::PhysicalStack stack(4, 60, 1.3, 7);
  ASSERT_TRUE(stack.healthy());
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  injector.set_leader_lookup(
      [&](const GridCoord& c) { return stack.overlay->bound_node(c); });
  const std::size_t pending = stack.sim.pending();
  const auto arm_error = [&](const std::string& event) {
    const sim::FaultPlan plan = sim::FaultPlan::from_json(
        "{\"events\": [\n"
        "  {\"at\": 1.0, \"kind\": \"loss_burst\", \"loss\": 0.1},\n"
        "  " + event + "\n"
        "]}");
    try {
      injector.arm(plan);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::pair<std::string, std::string> cases[] = {
      {R"({"at": 5, "kind": "crash", "node": 99999})",
       "crash node 99999 is not in the network (60 nodes)"},
      {R"({"at": 5, "kind": "recover", "node": 60})",
       "recover node 60 is not in the network"},
      {R"({"at": 5, "kind": "set_budget", "node": 60, "budget": 1})",
       "set_budget node 60 is not in the network"},
      {R"({"at": 5, "kind": "crash", "cell": {"row": 40, "col": 40}})",
       "crash cell (40, 40) is not in the 4x4 grid"},
      {R"({"at": 5, "kind": "set_budget", "cell": {"row": 0, "col": 4},
           "headroom": 1})",
       "set_budget cell (0, 4) is not in the 4x4 grid"},
      {R"({"at": 5, "kind": "state_corruption", "cell": {"row": 4, "col": 0},
           "target": "epoch"})",
       "state_corruption cell (4, 0) is not in the 4x4 grid"},
  };
  for (const auto& [event, want] : cases) {
    const std::string msg = arm_error(event);
    EXPECT_NE(msg.find("line 3, event #2: " + want), std::string::npos)
        << event << " -> " << msg;
  }
  EXPECT_EQ(stack.sim.pending(), pending);  // nothing was scheduled

  // Without a CellMapper a link injector cannot place a cell at all.
  sim::FaultInjector unmapped(stack.sim, *stack.link);
  EXPECT_THROW(unmapped.arm(sim::FaultPlan::from_json(
                   R"({"events": [{"at": 1, "kind": "crash",
                                   "cell": {"row": 0, "col": 0}}]})")),
               std::runtime_error);

  // A plan built in code has no lines; the virtual fabric has 16 nodes.
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4), core::CostModel{});
  sim::FaultInjector virtual_injector(sim, vnet);
  sim::FaultPlan plan;
  plan.events.emplace_back().node = 16;
  try {
    virtual_injector.arm(plan);
    ADD_FAILURE() << "node 16 armed on a 16-node fabric";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "fault plan, event #1: crash node 16 is not in the network "
                 "(16 nodes)");
  }
}

TEST(FaultPlanJson, ToJsonRoundTrips) {
  const std::string text = R"({"events": [
    {"at": 5.0, "kind": "crash",   "node": 12},
    {"at": 6.0, "kind": "crash",   "cell": {"row": 0, "col": 4}},
    {"at": 9.0, "kind": "recover", "node": 12},
    {"at": 3.0, "kind": "loss_burst", "loss": 0.2, "duration": 4.0},
    {"at": 7.0, "kind": "region_outage",
     "row0": 1, "col0": 1, "row1": 2, "col1": 3,
     "duration": 5.0}
  ]})";
  const auto plan = sim::FaultPlan::from_json(text);
  const std::string serialized = plan.to_json();
  const auto reparsed = sim::FaultPlan::from_json(serialized);
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  EXPECT_EQ(reparsed.to_json(), serialized);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(reparsed.events[i].at, plan.events[i].at) << i;
    EXPECT_EQ(reparsed.events[i].duration, plan.events[i].duration) << i;
  }
}

TEST(FaultPlanJson, DownHorizonCoversOutagesNotLossBursts) {
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 5.0,  "kind": "crash",   "node": 12},
    {"at": 9.0,  "kind": "recover", "node": 12},
    {"at": 2.0,  "kind": "region_outage",
     "row0": 0, "col0": 0, "row1": 0, "col1": 0, "duration": 30.0},
    {"at": 40.0, "kind": "loss_burst", "loss": 0.5, "duration": 100.0}
  ]})");
  // Latest time an outage ends: region at 2+30=32 beats the recover at 9;
  // the loss burst degrades but does not down anything, so 140 is ignored.
  EXPECT_DOUBLE_EQ(plan.down_horizon(), 32.0);
  EXPECT_DOUBLE_EQ(sim::FaultPlan{}.down_horizon(), 0.0);
}

// ---- Adversarial state corruption (plan + fire paths) -------------------

TEST(FaultPlanJson, ParsesStateCorruptionForms) {
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 4.0, "kind": "state_corruption", "node": 9, "target": "epoch"},
    {"at": 6.0, "kind": "state_corruption", "cell": {"row": 2, "col": 3},
     "target": "routes"}
  ]})");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, sim::FaultKind::kStateCorruption);
  EXPECT_EQ(plan.events[0].node, 9u);
  EXPECT_EQ(plan.events[0].target, sim::CorruptionTarget::kEpoch);
  EXPECT_EQ(plan.events[1].node, net::kNoNode);
  EXPECT_EQ(plan.events[1].cell.row, 2);
  EXPECT_EQ(plan.events[1].cell.col, 3);
  EXPECT_EQ(plan.events[1].target, sim::CorruptionTarget::kRoutes);
  // Corruption contributes its strike time to the settle horizon.
  EXPECT_DOUBLE_EQ(plan.down_horizon(), 6.0);
}

TEST(FaultPlanJson, StateCorruptionRoundTrips) {
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 1.0, "kind": "state_corruption", "node": 5, "target": "leader"},
    {"at": 2.0, "kind": "state_corruption", "cell": {"row": 1, "col": 1},
     "target": "leases"}
  ]})");
  const std::string serialized = plan.to_json();
  const auto reparsed = sim::FaultPlan::from_json(serialized);
  ASSERT_EQ(reparsed.events.size(), 2u);
  EXPECT_EQ(reparsed.to_json(), serialized);
  EXPECT_EQ(reparsed.events[0].target, sim::CorruptionTarget::kLeader);
  EXPECT_EQ(reparsed.events[1].target, sim::CorruptionTarget::kLeases);
}

TEST(FaultPlanJson, MembershipTargetParsesAndRoundTrips) {
  // The fifth corruption target: cell beliefs / leader rosters. Both the
  // node-targeted form (chaos campaigns resolve victims at plan time) and
  // the cell-targeted form (canned campaigns like campaigns/membership.json
  // resolve the leader at fire time) must survive a JSON round-trip.
  const auto plan = sim::FaultPlan::from_json(R"({"events": [
    {"at": 3.0, "kind": "state_corruption", "node": 7,
     "target": "membership"},
    {"at": 8.0, "kind": "state_corruption", "cell": {"row": 3, "col": 0},
     "target": "membership"}
  ]})");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].target, sim::CorruptionTarget::kMembership);
  EXPECT_EQ(plan.events[0].node, 7u);
  EXPECT_EQ(plan.events[1].target, sim::CorruptionTarget::kMembership);
  EXPECT_EQ(plan.events[1].cell.row, 3);
  const std::string serialized = plan.to_json();
  const auto reparsed = sim::FaultPlan::from_json(serialized);
  ASSERT_EQ(reparsed.events.size(), 2u);
  EXPECT_EQ(reparsed.to_json(), serialized);
  EXPECT_EQ(reparsed.events[0].target, sim::CorruptionTarget::kMembership);
  EXPECT_EQ(reparsed.events[1].target, sim::CorruptionTarget::kMembership);
}

TEST(FaultPlanJson, StateCorruptionRejectionsNameLineAndEvent) {
  const std::string unknown = rejection_message(
      "{\"events\": [\n"
      "  {\"at\": 1.0, \"kind\": \"crash\", \"node\": 3},\n"
      "  {\"at\": 2.0, \"kind\": \"state_corruption\", \"node\": 4, "
      "\"target\": \"karma\"}\n"
      "]}");
  EXPECT_NE(unknown.find("line 3"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("event #2"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("karma"), std::string::npos) << unknown;

  const std::string no_target = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "state_corruption", "node": 4}]})");
  EXPECT_NE(no_target.find("\"target\""), std::string::npos) << no_target;
  EXPECT_NE(no_target.find("event #1"), std::string::npos) << no_target;

  const std::string no_victim = rejection_message(
      R"({"events": [{"at": 1.0, "kind": "state_corruption",
                      "target": "epoch"}]})");
  EXPECT_NE(no_victim.find("\"node\" or \"cell\""), std::string::npos)
      << no_victim;

  const std::string neg_at = rejection_message(
      R"({"events": [{"at": -2.0, "kind": "state_corruption", "node": 1,
                      "target": "epoch"}]})");
  EXPECT_NE(neg_at.find("negative time"), std::string::npos) << neg_at;
}

TEST(FaultPlanFire, CellTargetedCorruptionResolvesLeaderAtFireTime) {
  emulation::PhysicalStack stack(4, 60, 1.3, 7);
  ASSERT_TRUE(stack.healthy());
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  injector.set_leader_lookup(
      [&](const GridCoord& c) { return stack.overlay->bound_node(c); });
  std::vector<std::pair<net::NodeId, sim::CorruptionTarget>> hits;
  injector.set_corruption_applier(
      [&](net::NodeId n, sim::CorruptionTarget t) {
        hits.emplace_back(n, t);
        return true;
      });
  injector.arm(sim::FaultPlan::from_json(R"({"events": [
    {"at": 2.0, "kind": "state_corruption", "cell": {"row": 1, "col": 1},
     "target": "leases"}
  ]})"));
  stack.sim.run();
  const net::NodeId leader = stack.overlay->bound_node({1, 1});
  ASSERT_NE(leader, net::kNoNode);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, leader);
  EXPECT_EQ(hits[0].second, sim::CorruptionTarget::kLeases);
  EXPECT_EQ(injector.counters().get("fault.corrupt"), 1u);
}

TEST(FaultPlanFire, CorruptionOfDownNodeIsANoOp) {
  emulation::PhysicalStack stack(4, 60, 1.3, 7);
  ASSERT_TRUE(stack.healthy());
  const net::NodeId victim = stack.overlay->bound_node({2, 2});
  ASSERT_NE(victim, net::kNoNode);
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  std::size_t applied = 0;
  injector.set_corruption_applier(
      [&](net::NodeId, sim::CorruptionTarget) {
        ++applied;
        return true;
      });
  sim::FaultPlan plan;
  sim::FaultEvent crash;
  crash.at = 1.0;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = victim;
  plan.events.push_back(crash);
  sim::FaultEvent corrupt;
  corrupt.at = 2.0;
  corrupt.kind = sim::FaultKind::kStateCorruption;
  corrupt.node = victim;
  corrupt.target = sim::CorruptionTarget::kEpoch;
  plan.events.push_back(corrupt);
  injector.arm(plan);
  stack.sim.run();
  // A down node has no live soft state to scramble: the strike is counted
  // as skipped and the applier never runs.
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(injector.counters().get("fault.corrupt_down"), 1u);
  EXPECT_EQ(injector.counters().get("fault.corrupt"), 0u);
}

TEST(FaultPlanFire, CorruptionWithoutApplierCountsUnwired) {
  emulation::PhysicalStack stack(4, 60, 1.3, 7);
  ASSERT_TRUE(stack.healthy());
  const net::NodeId victim = stack.overlay->bound_node({0, 1});
  ASSERT_NE(victim, net::kNoNode);
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  sim::FaultPlan plan;
  sim::FaultEvent corrupt;
  corrupt.at = 1.0;
  corrupt.kind = sim::FaultKind::kStateCorruption;
  corrupt.node = victim;
  corrupt.target = sim::CorruptionTarget::kRoutes;
  plan.events.push_back(corrupt);
  injector.arm(plan);
  stack.sim.run();
  EXPECT_EQ(injector.counters().get("fault.corrupt_unwired"), 1u);
  EXPECT_EQ(injector.counters().get("fault.corrupt"), 0u);
}

// ---- Deadline-bounded collectives on the virtual layer ------------------

std::vector<GridCoord> all_coords(std::size_t side) {
  std::vector<GridCoord> out;
  for (const GridCoord& c : core::GridTopology(side).all_coords()) {
    out.push_back(c);
  }
  return out;
}

TEST(DeadlineCollectives, CompleteOnHealthyFabricMatchesPlainReduce) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4), core::CostModel{});
  const auto members = all_coords(4);
  std::vector<double> values;
  for (std::size_t i = 0; i < members.size(); ++i) {
    values.push_back(static_cast<double>(i) + 1.0);
  }
  core::PartialResult result;
  core::group_reduce_deadline(vnet, members, {0, 0}, values,
                              core::ReduceOp::kSum, 1.0, 1e6,
                              [&](const core::PartialResult& r) { result = r; });
  sim.run();

  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_TRUE(result.complete());
  EXPECT_FALSE(result.deadline_hit);
  EXPECT_EQ(result.value, sum);
  EXPECT_EQ(result.contributors.size(), members.size());
  EXPECT_TRUE(result.missing().empty());
}

TEST(DeadlineCollectives, ReduceClosesPartialWhenMemberIsDown) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4), core::CostModel{});
  const auto members = all_coords(4);
  std::vector<double> values(members.size(), 1.0);
  const GridCoord dead{2, 2};
  vnet.set_down(dead, true);

  core::PartialResult result;
  core::group_reduce_deadline(vnet, members, {0, 0}, values,
                              core::ReduceOp::kSum, 1.0, 50.0,
                              [&](const core::PartialResult& r) { result = r; });
  sim.run();

  EXPECT_TRUE(result.deadline_hit);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.value,
            static_cast<double>(members.size() - 1));
  const auto missing = result.missing();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], dead);
}

TEST(DeadlineCollectives, SortAndRankDegradeToContributors) {
  sim::Simulator sim(3);
  core::VirtualNetwork vnet(sim, core::GridTopology(4), core::CostModel{});
  const auto members = all_coords(4);
  // Distinct, deliberately unsorted values: i*7 mod 16 is a permutation.
  std::vector<double> values;
  for (std::size_t i = 0; i < members.size(); ++i) {
    values.push_back(static_cast<double>((i * 7) % 16));
  }
  const GridCoord dead{2, 2};  // index 10, holds value 6
  vnet.set_down(dead, true);

  std::vector<double> sorted;
  core::PartialResult sort_result;
  core::group_sort_deadline(
      vnet, members, {0, 0}, values, 1.0, 50.0,
      [&](std::vector<double> s, core::PartialResult r) {
        sorted = std::move(s);
        sort_result = r;
      });
  sim.run();

  ASSERT_EQ(sort_result.contributors.size(), members.size() - 1);
  EXPECT_EQ(sort_result.value,
            static_cast<double>(sort_result.contributors.size()));
  ASSERT_EQ(sorted.size(), members.size() - 1);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(std::count(sorted.begin(), sorted.end(), 6.0), 0);

  std::vector<std::uint32_t> ranks;
  core::PartialResult rank_result;
  core::group_rank_deadline(
      vnet, members, {0, 0}, values, 1.0, 50.0,
      [&](std::vector<std::uint32_t> r, core::PartialResult pr) {
        ranks = std::move(r);
        rank_result = pr;
      });
  sim.run();

  // Ranks align with contributors and form a permutation of 0..k-1.
  ASSERT_EQ(ranks.size(), rank_result.contributors.size());
  std::vector<std::uint32_t> check(ranks);
  std::sort(check.begin(), check.end());
  for (std::uint32_t i = 0; i < check.size(); ++i) EXPECT_EQ(check[i], i);
}

// Property: under arbitrary crash schedules, contributors is always a
// duplicate-free subset of expected and the value folds exactly the
// contributors' inputs.
TEST(DeadlineCollectives, PartialResultInvariantsUnderRandomCrashes) {
  constexpr std::size_t kSide = 8;
  const auto members = all_coords(kSide);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Simulator sim(seed);
    core::VirtualNetwork vnet(sim, core::GridTopology(kSide),
                              core::CostModel{});
    std::vector<double> values;
    for (std::size_t i = 0; i < members.size(); ++i) {
      values.push_back(static_cast<double>(i) + 1.0);
    }

    // Deterministic pseudo-random crash schedule; never the leader (0,0).
    sim::FaultPlan plan;
    const std::size_t crashes = 1 + seed % 5;
    for (std::size_t k = 0; k < crashes; ++k) {
      sim::FaultEvent ev;
      ev.kind = sim::FaultKind::kCrash;
      ev.node = 1 + (seed * 13 + k * 7) % (members.size() - 1);
      ev.at = static_cast<double>((seed + k * 3) % 9);
      plan.events.push_back(ev);
    }
    sim::FaultInjector injector(sim, vnet);
    injector.arm(plan);

    core::PartialResult result;
    core::group_reduce_deadline(
        vnet, members, {0, 0}, values, core::ReduceOp::kSum, 1.0, 40.0,
        [&](const core::PartialResult& r) { result = r; });
    sim.run();

    // contributors ⊆ expected, without duplicates.
    std::set<std::size_t> seen;
    core::GridTopology grid(kSide);
    double sum = 0.0;
    for (const GridCoord& c : result.contributors) {
      const std::size_t idx = grid.index_of(c);
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate contributor";
      EXPECT_NE(std::find(result.expected.begin(), result.expected.end(), c),
                result.expected.end())
          << "contributor outside expected";
      sum += values[idx];
    }
    EXPECT_EQ(result.value, sum) << "seed " << seed;
    EXPECT_EQ(result.expected.size(), members.size());
    if (result.complete()) {
      EXPECT_FALSE(result.deadline_hit);
    }
    EXPECT_EQ(result.missing().size(),
              members.size() - result.contributors.size());
  }
}

// ---- Campaign determinism ------------------------------------------------

std::string run_campaign_capture(std::uint64_t seed) {
  obs::RingBufferSink sink(1u << 20);
  emulation::PhysicalStack stack(4, 80, 1.3, seed);
  EXPECT_TRUE(stack.healthy());
  net::ReliableConfig cfg;
  cfg.max_retries = 3;
  stack.enable_arq(cfg);
  oracle::FailoverBinder binder(*stack.arq, *stack.overlay);
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  injector.set_leader_lookup(
      [&](const GridCoord& c) { return stack.overlay->bound_node(c); });

  // Capture only the campaign (setup already ran).
  obs::ScopedTrace scope(sink);
  injector.arm(sim::FaultPlan::from_json(R"({"events": [
    {"at": 0.0, "kind": "loss_burst", "loss": 0.1, "duration": 200.0},
    {"at": 1.0, "kind": "crash", "cell": {"row": 1, "col": 1}}
  ]})"));

  const auto members = all_coords(4);
  const std::vector<double> values(members.size(), 1.0);
  for (int round = 0; round < 2; ++round) {
    core::group_reduce_deadline(*stack.overlay, members, {0, 0}, values,
                                core::ReduceOp::kSum, 1.0, 80.0,
                                [](const core::PartialResult&) {});
    stack.sim.run();
  }

  std::ostringstream out;
  obs::write_jsonl(sink.events(), out);
  return out.str();
}

TEST(CampaignDeterminism, IdenticalSeedAndPlanYieldByteIdenticalTraces) {
  const std::string a = run_campaign_capture(11);
  const std::string b = run_campaign_capture(11);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("fault.crash"), std::string::npos);
  EXPECT_NE(a.find("rel.send"), std::string::npos);
  EXPECT_EQ(a, b);
}

// ---- Flagship: canned campaign on the physical stack --------------------
//
// 8x8 grid, 200 nodes, 5% loss burst, three timed crashes — one of them
// the cell (0,4) leader, which under north-west placement is a level-2
// quadtree leader. Round 1 must close partially at the deadline with the
// crashed cells missing; the ARQ give-ups must drive automatic failover;
// round 2 must recover at least as many contributors; the captured trace
// and metrics must pass the analyzer's invariants.
TEST(FaultCampaign, CannedCampaignDegradesRecoversAndExplains) {
  // The capture starts before the stack is built, so the trace replays
  // every charge the energy ledger saw.
  obs::RingBufferSink sink(1u << 20);
  obs::ScopedTrace scope(sink);
  // Seed 1: fault-free, this deployment routes every cell to the leader, so
  // any degradation below is attributable to the injected faults.
  emulation::PhysicalStack stack(8, 200, 1.3, 1);
  ASSERT_TRUE(stack.healthy());
  net::ReliableConfig cfg;
  cfg.max_retries = 3;
  stack.enable_arq(cfg);
  oracle::FailoverBinder binder(*stack.arq, *stack.overlay);
  sim::FaultInjector injector(stack.sim, *stack.link, stack.mapper.get());
  injector.set_leader_lookup(
      [&](const GridCoord& c) { return stack.overlay->bound_node(c); });

  obs::MetricsRegistry registry;
  stack.register_metrics(registry);
  registry.add_counters("fault.counters", &injector.counters());
  registry.add_counters("failover.counters", &binder.counters());

  const std::vector<GridCoord> crashed_cells = {{0, 4}, {2, 3}, {5, 6}};
  std::vector<net::NodeId> old_leaders;
  for (const GridCoord& c : crashed_cells) {
    old_leaders.push_back(stack.overlay->bound_node(c));
  }

  injector.arm(sim::FaultPlan::from_json(R"({"events": [
    {"at": 0.0, "kind": "loss_burst", "loss": 0.05, "duration": 2000.0},
    {"at": 0.0, "kind": "crash", "cell": {"row": 0, "col": 4}},
    {"at": 0.0, "kind": "crash", "cell": {"row": 2, "col": 3}},
    {"at": 0.0, "kind": "crash", "cell": {"row": 5, "col": 6}}
  ]})"));
  // Apply the t=0 faults before the first round begins.
  stack.sim.run_until(stack.sim.now() + 0.5);
  EXPECT_EQ(injector.counters().get("fault.crash"), 3u);

  const auto members = all_coords(8);
  const std::vector<double> values(members.size(), 1.0);

  core::PartialResult round1;
  core::group_reduce_deadline(*stack.overlay, members, {0, 0}, values,
                              core::ReduceOp::kSum, 1.0, 200.0,
                              [&](const core::PartialResult& r) { round1 = r; });
  stack.sim.run();

  // Round 1: partial, with each crashed cell's contribution missing and the
  // folded value exactly the contributor count.
  EXPECT_TRUE(round1.deadline_hit);
  EXPECT_FALSE(round1.complete());
  EXPECT_EQ(round1.value, static_cast<double>(round1.contributors.size()));
  const auto missing1 = round1.missing();
  for (const GridCoord& c : crashed_cells) {
    EXPECT_NE(std::find(missing1.begin(), missing1.end(), c), missing1.end())
        << "crashed cell (" << c.row << "," << c.col << ") contributed";
  }

  // The give-up liveness signal re-bound every crashed cell to a live
  // member — the same winner the central oracle picks among survivors.
  EXPECT_EQ(binder.failovers(), 3u);
  const auto oracle = emulation::oracle_leaders(
      *stack.mapper, emulation::BindingMetric::kDistanceToCenter,
      *stack.ledger, stack.link.get());
  for (std::size_t i = 0; i < crashed_cells.size(); ++i) {
    const GridCoord& c = crashed_cells[i];
    const net::NodeId now_bound = stack.overlay->bound_node(c);
    EXPECT_NE(now_bound, old_leaders[i]);
    EXPECT_FALSE(stack.link->is_down(now_bound));
    const std::size_t idx = static_cast<std::size_t>(c.row) * 8 +
                            static_cast<std::size_t>(c.col);
    EXPECT_EQ(now_bound, oracle[idx]);
  }

  // Round 2 on the re-bound overlay recovers at least as much of the grid.
  core::PartialResult round2;
  core::group_reduce_deadline(*stack.overlay, members, {0, 0}, values,
                              core::ReduceOp::kSum, 1.0, 200.0,
                              [&](const core::PartialResult& r) { round2 = r; });
  stack.sim.run();
  EXPECT_GE(round2.contributors.size(), round1.contributors.size());
  EXPECT_EQ(round2.value, static_cast<double>(round2.contributors.size()));

  // The captured trace must satisfy the whole oracle: the structural
  // flow/collective invariants, the reliability invariants (rel.* pairing,
  // no delivery into a crash window, give-up counter consistency) and the
  // energy balance against the ledger.
  EXPECT_EQ(sink.dropped(), 0u);
  const obs::analyze::JsonValue snapshot =
      obs::analyze::parse_json(registry.to_json());
  const auto report = testing_helpers::check_events(sink.events(), &snapshot);
  EXPECT_TRUE(report.ok()) << report.issues.front();
  EXPECT_GT(stack.arq->counters().get("arq.give_up"), 0u);
}

}  // namespace
}  // namespace wsn
