// Offline trace analysis toolkit: flow reconstruction, critical paths,
// energy attribution, the invariant checker, bench-baseline comparison, the
// histogram instrument, and the wsn-inspect CLI driver.
//
// The analysis pipeline is exercised end-to-end against real captures: a
// simulated run emits through the tracer into a ring buffer, the events are
// round-tripped through JSONL, and the offline code must recover exactly
// what the live ledgers and counters saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "core/primitives.h"
#include "core/virtual_network.h"
#include "emulation/physical_stack.h"
#include "obs/analyze/bench_compare.h"
#include "obs/analyze/check.h"
#include "obs/analyze/cli.h"
#include "obs/analyze/energy.h"
#include "obs/analyze/flows.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "tests/trace_helpers.h"

namespace {

using namespace wsn;
using namespace wsn::obs::analyze;
using testing_helpers::check_events;
using testing_helpers::collect_flows;
using testing_helpers::energy_of;

/// Captured virtual-layer run: every node sends one unit message to the
/// grid origin, optionally with transmitter serialization (queueing).
std::vector<obs::TraceEvent> capture_all_to_origin(std::size_t side,
                                                   core::Congestion congestion) {
  obs::RingBufferSink sink(1 << 16);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model(),
                            core::LeaderPlacement::kNorthWest, congestion);
  {
    obs::ScopedTrace trace(sink);
    for (const auto& c : vnet.grid().all_coords()) {
      vnet.send(c, {0, 0}, std::monostate{}, 1.0);
    }
    sim.run();
  }
  return sink.events();
}

// ---------------------------------------------------------------------------
// Histogram instrument

TEST(Histogram, PercentilesOnUniformData) {
  obs::Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 50.0, 1e-9);
  // Bucket i holds exactly one sample; interpolation lands mid-bucket-edge.
  EXPECT_NEAR(h.p50(), 50.0, 1.0);
  EXPECT_NEAR(h.p95(), 95.0, 1.0);
  EXPECT_NEAR(h.p99(), 99.0, 1.0);
  EXPECT_NEAR(h.percentile(1.0), 100.0, 1.0);
}

TEST(Histogram, UnderflowAndOverflowTracked) {
  obs::Histogram h(10.0, 20.0, 4);
  h.add(5.0);    // underflow
  h.add(25.0);   // overflow
  h.add(12.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  // p100 clamps to hi even though max() is beyond it.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
}

TEST(Histogram, PercentilesStayWithinTheSamples) {
  // Both samples sit in the bucket [20, 30); spreading its mass evenly
  // would read p50 = 25 and p99 = 29.9, past the largest sample, and
  // p1 = 20.1, below the smallest.
  obs::Histogram h(0.0, 100.0, 10);
  h.add(23.0);
  h.add(24.0);
  EXPECT_DOUBLE_EQ(h.p50(), 24.0);
  EXPECT_DOUBLE_EQ(h.p99(), 24.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.01), 23.0);
  for (const double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_GE(h.percentile(p), h.min()) << p;
    EXPECT_LE(h.percentile(p), h.max()) << p;
  }
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(obs::Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RegistrySnapshotCarriesPercentiles) {
  obs::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  obs::MetricsRegistry registry;
  registry.add_histogram("app.latency", &h);
  EXPECT_EQ(&registry.histogram("app.latency"), &h);
  EXPECT_THROW(registry.histogram("nope"), std::out_of_range);

  const JsonValue doc = parse_json(registry.to_json());
  const JsonValue* hist = doc.find("app.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number(), 10.0);
  EXPECT_NEAR(hist->find("p50")->number(), 5.0, 1.0);
  EXPECT_NEAR(hist->find("p99")->number(), 9.9, 1.0);
  ASSERT_TRUE(hist->find("buckets")->is_array());
  EXPECT_EQ(hist->find("buckets")->array().size(), 10u);
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonReader, ParsesNestedDocument) {
  const JsonValue v = parse_json(
      R"({"a": [1, -2, 3.5, "x"], "b": {"c": true, "d": null}})");
  const JsonArray& a = v.find("a")->array();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<std::uint64_t>(a[0].v));
  EXPECT_TRUE(std::holds_alternative<std::int64_t>(a[1].v));
  EXPECT_TRUE(std::holds_alternative<double>(a[2].v));
  EXPECT_EQ(a[3].string(), "x");
  EXPECT_TRUE(v.find("b")->find("c")->is_bool());
  EXPECT_TRUE(v.find("b")->find("d")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{\"a\": 1"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} extra"), std::runtime_error);
  EXPECT_THROW(parse_json("{'a': 1}"), std::runtime_error);
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": tru}"), std::runtime_error);
  EXPECT_THROW(parse_json(std::string(200000, '[')), std::runtime_error);
}

/// The message parse_json throws for `text`, or "" if it parses.
std::string json_error(const std::string& text) {
  try {
    (void)parse_json(text);
  } catch (const JsonError& e) {
    return e.what();
  }
  return {};
}

TEST(JsonReader, RejectsMalformedNumbersNamingTheirLine) {
  // Each once parsed as the prefix strtod/strtoull accepted: 0, 1, 1.2, 1,
  // UINT64_MAX. Now each is an error on the line it sits on.
  for (const std::string bad :
       {"--5", "1-2", "1.2.3", "1e", "18446744073709551616", "01", "-",
        "1.", ".5", "+1", "-9223372036854775809", "1e400"}) {
    const std::string msg = json_error("{\n\"a\": 1,\n\"b\": " + bad + "\n}");
    EXPECT_EQ(msg.rfind("json: line 3: ", 0), 0u) << bad << " -> " << msg;
  }
  const JsonValue v = parse_json(
      "[18446744073709551615, -9223372036854775808, -0, 0.5e-3, 1E+2]");
  const JsonArray& a = v.array();
  EXPECT_EQ(std::get<std::uint64_t>(a[0].v),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(std::get<std::int64_t>(a[1].v),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(std::get<std::int64_t>(a[2].v), 0);
  EXPECT_DOUBLE_EQ(std::get<double>(a[3].v), 0.0005);
  EXPECT_DOUBLE_EQ(std::get<double>(a[4].v), 100.0);
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8) {
  const JsonValue v = parse_json(
      R"(["A\u00e9\u20ac", "\ud83d\ude00", "\u0000"])");
  const JsonArray& a = v.array();
  EXPECT_EQ(a[0].string(), "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(a[1].string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(a[2].string(), std::string(1, '\0'));
  // "\u00zz" once decoded as a NUL byte.
  for (const std::string bad : {R"("\u00zz")", R"("\u12")", R"("\ud83d")",
                                R"("\ude00")", R"("\ud83d\u0041")"}) {
    const std::string msg = json_error("[\n" + bad + "]");
    EXPECT_EQ(msg.rfind("json: line 2: ", 0), 0u) << bad << " -> " << msg;
  }
  EXPECT_EQ(json_error("[\"a\nb\"]").rfind("json: line 1: control", 0), 0u);
}

TEST(JsonReader, ValuesAndErrorsCarryLines) {
  const JsonValue v =
      parse_json("{\n  \"a\": [1,\n    \"x\"],\n\n  \"b\": null}");
  EXPECT_EQ(v.line, 1u);
  EXPECT_EQ(v.find("a")->line, 2u);
  EXPECT_EQ(v.find("a")->array()[0].line, 2u);
  EXPECT_EQ(v.find("a")->array()[1].line, 3u);
  EXPECT_EQ(v.find("b")->line, 5u);
  // A wrong-type accessor names the value's line.
  try {
    (void)v.find("a")->array()[1].number();
    ADD_FAILURE() << "a string read as a number";
  } catch (const JsonError& e) {
    EXPECT_STREQ(e.what(), "json: line 3: value is not a number");
    EXPECT_EQ(e.line(), 3u);
  }
  EXPECT_EQ(json_error("{\"a\": 1\n\n\"b\": 2}"),
            "json: line 3: expected '}'");
}

// ---------------------------------------------------------------------------
// Flow reconstruction

TEST(FlowReconstruction, RecoversPathAndLatencyContentionFree) {
  const auto events =
      capture_all_to_origin(8, core::Congestion::kNone);
  const auto flows = collect_flows(events);
  ASSERT_EQ(flows.size(), 64u);

  core::GridTopology grid(8);
  for (const Flow& f : flows) {
    ASSERT_TRUE(f.has_send);
    if (f.self_send) {
      EXPECT_EQ(f.expected_hops, 0u);
      continue;
    }
    EXPECT_TRUE(f.delivered);
    EXPECT_EQ(f.dst_node, 0);
    const auto src = grid.coord_of(static_cast<std::size_t>(f.src_node));
    EXPECT_EQ(f.expected_hops, manhattan(src, {0, 0}));
    EXPECT_EQ(f.hops, f.expected_hops);
    // Unit cost model, no contention: latency == hops, zero queueing.
    EXPECT_DOUBLE_EQ(f.latency(), static_cast<double>(f.expected_hops));
    EXPECT_DOUBLE_EQ(f.wait, 0.0);
    EXPECT_DOUBLE_EQ(f.transmit, f.latency());
  }
}

TEST(FlowReconstruction, CapturesQueueingUnderSerialization) {
  const auto events =
      capture_all_to_origin(8, core::Congestion::kNodeSerialized);
  const auto flows = collect_flows(events);
  double total_wait = 0.0;
  for (const Flow& f : flows) {
    if (f.self_send) continue;
    EXPECT_TRUE(f.delivered);
    // Exact decomposition even under queueing: latency = wait + transmit.
    EXPECT_NEAR(f.latency(), f.wait + f.transmit, 1e-9);
    total_wait += f.wait;
  }
  // 64 transmitters funneling into one corner must queue somewhere.
  EXPECT_GT(total_wait, 0.0);
}

TEST(FlowReconstruction, AThousandHopFlowAllocatesNothingPastItsSend) {
  // A flow keeps the count and sums of its hops, not the hops: once its
  // record exists, no hop or delivery allocates.
  Flow retired;
  FlowCollector collector([&retired](Flow& f) { retired = f; });
  collector.feed({0.0, 0, obs::Category::kVirtual, 'i', "send", 1,
                  {{"hops", std::uint64_t{1000}}}});
  const std::uint64_t before = obs::global_alloc_stats().count;
  for (std::int64_t h = 0; h < 1000; ++h) {
    const double t = static_cast<double>(h);
    collector.feed({t, h, obs::Category::kVirtual, 'i', "hop", 1,
                    {{"hop", static_cast<std::uint64_t>(h)},
                     {"depart", t + 1.0},
                     {"wait", 0.25}}});
  }
  collector.feed({1000.0, 1000, obs::Category::kVirtual, 'i', "deliver", 1,
                  {}});
  EXPECT_EQ(obs::global_alloc_stats().count - before, 0u);
  collector.finish();
  EXPECT_EQ(retired.hops, 1000u);
  EXPECT_DOUBLE_EQ(retired.wait, 250.0);
  EXPECT_DOUBLE_EQ(retired.transmit, 750.0);
  EXPECT_DOUBLE_EQ(retired.span, 1000.0);
  EXPECT_FALSE(retired.acausal_relay.has_value());
}

TEST(FlowReconstruction, CollectiveSpansPairUp) {
  obs::RingBufferSink sink(1 << 14);
  sim::Simulator sim(1);
  core::GridTopology grid(4);
  core::VirtualNetwork vnet(sim, grid, core::uniform_cost_model());
  core::GroupHierarchy groups(grid);
  {
    obs::ScopedTrace trace(sink);
    const auto members = groups.members({0, 0}, 2);
    std::vector<double> values(members.size(), 1.0);
    core::group_reduce_deadline(vnet, members, groups.leader_of({0, 0}, 2),
                                values, core::ReduceOp::kSum, 1.0,
                                core::kNoDeadline,
                                [](const core::PartialResult&) {});
    sim.run();
  }
  // One 'B'/'E' pair with the same collective id: the span closes, carries
  // the group size, and ends after it begins.
  std::vector<obs::TraceEvent> begins;
  std::vector<obs::TraceEvent> ends;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.category != obs::Category::kCollective || ev.flow == 0) continue;
    if (ev.phase == 'B') begins.push_back(ev);
    if (ev.phase == 'E') ends.push_back(ev);
  }
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].flow, begins[0].flow);
  EXPECT_EQ(attr_num(begins[0], "members"), 16.0);
  EXPECT_GT(ends[0].time, begins[0].time);
}

// ---------------------------------------------------------------------------
// Critical path

TEST(CriticalPath, FollowsDependencyChain) {
  obs::RingBufferSink sink(1 << 14);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  {
    obs::ScopedTrace trace(sink);
    // A three-stage relay: (0,7) -> (0,3), then after a merge pause the
    // result continues (0,3) -> (0,1) -> (0,0).
    vnet.set_receiver({0, 3}, [&](const core::VirtualMessage&) {
      vnet.send({0, 3}, {0, 1}, std::monostate{}, 1.0);
    });
    vnet.set_receiver({0, 1}, [&](const core::VirtualMessage&) {
      vnet.send({0, 1}, {0, 0}, std::monostate{}, 1.0);
    });
    vnet.send({0, 7}, {0, 3}, std::monostate{}, 1.0);
    sim.run();
  }
  const auto flows = collect_flows(sink.events());
  ASSERT_EQ(flows.size(), 3u);
  const CriticalPathReport report = critical_path(flows);
  ASSERT_EQ(report.chain.size(), 3u);
  // Chain in time order, rooted at the original sender.
  EXPECT_EQ(report.chain.front().flow->src_node, 7);
  EXPECT_EQ(report.chain.back().flow->dst_node, 0);
  EXPECT_DOUBLE_EQ(report.chain.front().gap_before, 0.0);
  // Sends happen inside the deliver callbacks at the delivery instant, so
  // the chain has no idle node time and total == transmit.
  EXPECT_DOUBLE_EQ(report.node_gaps, 0.0);
  EXPECT_DOUBLE_EQ(report.total(), 4.0 + 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(report.message_transmit, 7.0);
  EXPECT_DOUBLE_EQ(report.start_time, 0.0);
  EXPECT_DOUBLE_EQ(report.end_time, 7.0);
}

TEST(CriticalPath, EmptyOnNoDeliveries) {
  const CriticalPathReport report = critical_path({});
  EXPECT_TRUE(report.chain.empty());
  EXPECT_DOUBLE_EQ(report.total(), 0.0);
}

// ---------------------------------------------------------------------------
// Energy attribution

TEST(EnergyAttribution, MatchesLedgerExactlyPerNode) {
  obs::RingBufferSink sink(1 << 16);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  {
    obs::ScopedTrace trace(sink);
    for (const auto& c : vnet.grid().all_coords()) {
      vnet.send(c, {0, 0}, std::monostate{}, 2.0);  // non-unit size
    }
    sim.run();
  }
  const EnergyMap map = energy_of(sink.events());
  const auto& ledger = vnet.ledger();
  EXPECT_NEAR(map.vnet.tx, ledger.total(net::EnergyUse::kTx), 1e-9);
  EXPECT_NEAR(map.vnet.rx, ledger.total(net::EnergyUse::kRx), 1e-9);
  ASSERT_EQ(map.vnet.nodes.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(map.vnet.nodes.at(i).tx,
                ledger.spent(static_cast<net::NodeId>(i), net::EnergyUse::kTx),
                1e-9)
        << "node " << i;
    EXPECT_NEAR(map.vnet.nodes.at(i).rx,
                ledger.spent(static_cast<net::NodeId>(i), net::EnergyUse::kRx),
                1e-9)
        << "node " << i;
  }
}

TEST(EnergyAttribution, LinkLayerMatchesLedger) {
  emulation::PhysicalStack stack(4, 40, 1.6, 7);
  ASSERT_TRUE(stack.healthy());
  stack.ledger->reset();  // drop setup-phase energy: the trace starts here
  obs::RingBufferSink sink(1 << 16);
  {
    obs::ScopedTrace trace(sink);
    for (int i = 0; i < 4; ++i) {
      stack.overlay->send({3, 3}, {0, 0}, std::monostate{}, 1.0);
    }
    stack.sim.run();
  }
  const EnergyMap map = energy_of(sink.events());
  EXPECT_GT(map.link.total(), 0.0);
  EXPECT_NEAR(map.link.tx, stack.ledger->total(net::EnergyUse::kTx), 1e-9);
  EXPECT_NEAR(map.link.rx, stack.ledger->total(net::EnergyUse::kRx), 1e-9);
}

TEST(EnergyAttribution, HotspotReportQuantifiesLeaderImbalance) {
  // The quad-tree aggregation funnels summaries through NW-corner leaders;
  // the per-level fold must show leaders outspending followers, more so at
  // higher levels.
  obs::RingBufferSink sink(1 << 16);
  sim::Simulator sim(1);
  core::GridTopology grid(16);
  core::VirtualNetwork vnet(sim, grid, core::uniform_cost_model());
  core::GroupHierarchy groups(grid);
  {
    obs::ScopedTrace trace(sink);
    // Every node reports to its level-2 leader; leaders forward to the root.
    for (const auto& c : grid.all_coords()) {
      vnet.send(c, groups.leader_of(c, 2), std::monostate{}, 1.0);
    }
    for (const auto& leader : groups.leaders(2)) {
      vnet.send(leader, {0, 0}, std::monostate{}, 1.0);
    }
    sim.run();
  }
  const EnergyMap map = energy_of(sink.events());
  const HotspotReport hs = hotspot_report(map.vnet);
  EXPECT_EQ(hs.side, 16u);
  ASSERT_EQ(hs.levels.size(), 4u);
  const LevelEnergy& l2 = hs.levels[1];
  EXPECT_EQ(l2.level, 2u);
  EXPECT_EQ(l2.leader_count, 16u);
  EXPECT_GT(l2.leader_mean, l2.follower_mean);
  EXPECT_GT(l2.imbalance(), 1.0);
  EXPECT_GE(hs.hotspot_factor(), 1.0);
}

TEST(EnergyAttribution, LevelMeansFoldOverChargedNodes) {
  // Node i of a 4x4 grid spends i. Level-1 leaders are 0, 2, 8 and 10;
  // the level-2 leader is 0. Node 6 is never charged.
  EnergyMap map;
  for (std::int64_t i = 0; i < 16; ++i) {
    if (i == 6) continue;
    map.vnet.charge(i, {static_cast<double>(i), 0.0});
  }
  EXPECT_EQ(map.vnet.nodes.size(), 15u);
  const HotspotReport hs = hotspot_report(map.vnet);
  EXPECT_EQ(hs.side, 4u);
  EXPECT_EQ(hs.hottest_node, 15);
  EXPECT_DOUBLE_EQ(hs.mean_energy, 114.0 / 16.0);
  ASSERT_EQ(hs.levels.size(), 2u);
  EXPECT_EQ(hs.levels[0].leader_count, 4u);
  EXPECT_DOUBLE_EQ(hs.levels[0].leader_mean, 20.0 / 4.0);
  EXPECT_DOUBLE_EQ(hs.levels[0].follower_mean, 94.0 / 12.0);
  EXPECT_EQ(hs.levels[1].leader_count, 1u);
  EXPECT_DOUBLE_EQ(hs.levels[1].leader_mean, 0.0);
  EXPECT_DOUBLE_EQ(hs.levels[1].follower_mean, 114.0 / 15.0);

  // Node 16 needs a side of 5: no power of two, so no hierarchy.
  map.vnet.charge(16, {1.0, 0.0});
  EXPECT_EQ(hotspot_report(map.vnet).side, 5u);
  EXPECT_TRUE(hotspot_report(map.vnet).levels.empty());
}

TEST(EnergyAttribution, FarNodeIdsHoldOneEntryEach) {
  // One delivery each, at ids far beyond any grid: the map keeps one entry
  // and the hotspot fold computes its grid instead of walking it.
  struct Case {
    obs::Category layer;
    std::int64_t node;
    std::size_t side;
    std::size_t levels;
  };
  const Case cases[] = {
      {obs::Category::kLink, 20'000'000, 4473, 0},
      {obs::Category::kVirtual, (std::int64_t{1} << 40) - 1,
       std::size_t{1} << 20, 20},
      {obs::Category::kVirtual, std::numeric_limits<std::int64_t>::max() - 1,
       3'037'000'500, 0},
  };
  for (const Case& c : cases) {
    const std::uint64_t before = obs::global_alloc_stats().bytes;
    EnergyMap map;
    accumulate_energy(map, {0.0, c.node, c.layer, 'i', "deliver", 0, {}});
    const LayerEnergy& layer =
        c.layer == obs::Category::kLink ? map.link : map.vnet;
    ASSERT_EQ(layer.nodes.size(), 1u) << c.node;
    EXPECT_EQ(layer.nodes.begin()->first, c.node);
    EXPECT_DOUBLE_EQ(layer.rx, 1.0);
    const HotspotReport hs = hotspot_report(layer);
    EXPECT_EQ(hs.side, c.side) << c.node;
    EXPECT_EQ(hs.levels.size(), c.levels) << c.node;
    EXPECT_EQ(hs.hottest_node, c.node);
    EXPECT_LT(obs::global_alloc_stats().bytes - before, 1u << 20) << c.node;
  }
}

// ---------------------------------------------------------------------------
// Invariant checker

TEST(Checker, FarNodeIdAllocatesUnderAMegabyte) {
  // The checker compares per-layer energy totals, so a node id costs
  // nothing by its size.
  StreamingChecker checker;
  const std::uint64_t before = obs::global_alloc_stats().bytes;
  checker.feed({1.0, 20'000'000, obs::Category::kLink, 'i', "deliver", 0,
                {{"size", 1.0}}});
  const CheckReport report = checker.finish();
  EXPECT_LT(obs::global_alloc_stats().bytes - before, 1u << 20);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.events_seen, 1u);
}

TEST(Checker, IdsReadOnlyAsIntegersTheirTypeHolds) {
  const auto ev = [](obs::AttrValue v) {
    return obs::TraceEvent{0.0, 0, obs::Category::kReliability, 'i',
                           "rel.send", 0, {{"seq", v}}};
  };
  constexpr double kTwo64 = 18446744073709551616.0;
  EXPECT_EQ(attr_int<std::uint64_t>(ev(std::uint64_t{7}), "seq"), 7u);
  EXPECT_EQ(attr_int<std::uint64_t>(ev(std::int64_t{7}), "seq"), 7u);
  EXPECT_EQ(attr_int<std::uint64_t>(ev(7.0), "seq"), 7u);
  EXPECT_EQ(attr_int<std::uint64_t>(ev(kTwo64 / 2), "seq"),
            std::uint64_t{1} << 63);
  EXPECT_EQ(attr_int<std::int64_t>(ev(-1.0), "seq"), -1);
  EXPECT_EQ(attr_int<std::int64_t>(ev(-kTwo64 / 2), "seq"),
            std::numeric_limits<std::int64_t>::min());
  // Absent: the fallback.
  EXPECT_EQ(attr_int<std::int64_t>(ev(7.0), "row", -1), -1);
  // Anything else: nothing.
  EXPECT_FALSE(attr_int<std::uint64_t>(ev(std::int64_t{-1}), "seq"));
  EXPECT_FALSE(attr_int<std::uint64_t>(ev(-1.0), "seq"));
  EXPECT_FALSE(attr_int<std::uint64_t>(ev(kTwo64), "seq"));
  EXPECT_FALSE(attr_int<std::uint64_t>(ev(1e300), "seq"));
  EXPECT_FALSE(attr_int<std::uint64_t>(ev(0.5), "seq"));
  EXPECT_FALSE(attr_int<std::uint64_t>(
      ev(std::numeric_limits<double>::quiet_NaN()), "seq"));
  EXPECT_FALSE(attr_int<std::uint64_t>(ev(obs::AttrCode("dead")), "seq"));
  EXPECT_FALSE(attr_int<std::int64_t>(ev(kTwo64 / 2), "seq"));
  EXPECT_FALSE(attr_int<std::int64_t>(
      ev(std::numeric_limits<std::uint64_t>::max()), "seq"));

  // The checker reports such an id, naming event, key and value, and keeps
  // no state for the event: the later ack finds no send.
  const CheckReport r = check_events(
      {ev(std::numeric_limits<double>::quiet_NaN()),
       obs::TraceEvent{1.0, 0, obs::Category::kReliability, 'i', "rel.ack", 0,
                       {{"src", std::uint64_t{0}},
                        {"dst", std::uint64_t{0}},
                        {"seq", std::uint64_t{0}}}}});
  ASSERT_EQ(r.issues.size(), 2u);
  EXPECT_EQ(r.issues[0],
            "rel.send at t=0.000000 (node 0): seq=nan is not an integer id");
  EXPECT_EQ(r.issues[1], "rel.ack 0>0#0: no matching rel.send");
}

TEST(Checker, PassesOnRealCapture) {
  const auto events =
      capture_all_to_origin(8, core::Congestion::kNodeSerialized);
  const CheckReport report = check_events(events);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.flows_checked, 64u);
}

TEST(Checker, DetectsDroppedDelivery) {
  auto events = capture_all_to_origin(4, core::Congestion::kNone);
  auto it = std::find_if(events.begin(), events.end(),
                         [](const obs::TraceEvent& e) {
                           return e.name == "deliver";
                         });
  ASSERT_NE(it, events.end());
  events.erase(it);
  const CheckReport report = check_events(events);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].find("never delivered"), std::string::npos);
}

TEST(Checker, DetectsOrphanDelivery) {
  auto events = capture_all_to_origin(4, core::Congestion::kNone);
  // Delete a send, keeping its hops/delivery: an orphan receive.
  auto it = std::find_if(events.begin(), events.end(),
                         [](const obs::TraceEvent& e) {
                           return e.name == "send";
                         });
  ASSERT_NE(it, events.end());
  events.erase(it);
  const CheckReport report = check_events(events);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].find("without a send"), std::string::npos);
}

TEST(Checker, DetectsTamperedHopTiming) {
  auto events = capture_all_to_origin(4, core::Congestion::kNone);
  for (obs::TraceEvent& ev : events) {
    if (ev.name != "hop") continue;
    for (obs::Attr& a : ev.attrs) {
      if (a.key == "wait") a.value = -0.5;  // impossible negative queueing
    }
    break;
  }
  const CheckReport report = check_events(events);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].find("acausal"), std::string::npos);
}

TEST(Checker, EnergyAgreesWithMetricsSnapshot) {
  obs::RingBufferSink sink(1 << 16);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  {
    obs::ScopedTrace trace(sink);
    for (const auto& c : vnet.grid().all_coords()) {
      vnet.send(c, {0, 0}, std::monostate{}, 1.0);
    }
    sim.run();
  }
  obs::MetricsRegistry registry;
  vnet.register_metrics(registry);
  const JsonValue snapshot = parse_json(registry.to_json());

  const CheckReport ok = check_events(sink.events(), &snapshot);
  EXPECT_TRUE(ok.ok()) << (ok.issues.empty() ? "" : ok.issues[0]);

  // A capture missing one hop's worth of events must be caught — by the
  // energy balance, not only by the flow structure.
  auto truncated = sink.events();
  truncated.pop_back();
  auto it = std::find_if(truncated.begin(), truncated.end(),
                         [](const obs::TraceEvent& e) {
                           return e.name == "deliver";
                         });
  ASSERT_NE(it, truncated.end());
  truncated.erase(it);
  const CheckReport bad = check_events(truncated, &snapshot);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(std::any_of(bad.issues.begin(), bad.issues.end(),
                          [](const std::string& issue) {
                            return issue.find("vnet.energy") !=
                                   std::string::npos;
                          }));
}

// ---------------------------------------------------------------------------
// Bench comparison

constexpr const char* kBaseline =
    "{\"bench\":\"a\",\"side\":4,\"latency\":10.0,\"setup_ms\":3.5}\n"
    "{\"bench\":\"a\",\"side\":8,\"latency\":20.0,\"setup_ms\":9.9}\n"
    "{\"bench\":\"b\",\"algo\":\"tree\",\"energy\":100.0}\n";

// ---- Depletion invariants ------------------------------------------------

obs::TraceEvent depletion_event(double t, std::int64_t node, double budget,
                                double spent) {
  return {t,
          node,
          obs::Category::kReliability,
          'i',
          "energy.depleted",
          0,
          {{"budget", budget}, {"spent", spent}}};
}

/// An uncorrelated (flow 0) link frame: the flow checks ignore it, the
/// depletion and crash-window checks do not.
obs::TraceEvent link_event(double t, std::int64_t node, obs::EventName name) {
  return {t, node, obs::Category::kLink, 'i', name, 0, {}};
}

TEST(CheckDepletion, CleanLifecyclePasses) {
  // Dying frame at the same timestamp as the crossing is legal (the link
  // layer charges tx before tracing it), later silence is mandatory.
  const std::vector<obs::TraceEvent> events = {
      link_event(1.0, 7, "broadcast"),
      depletion_event(2.0, 7, 50.0, 50.0),
      link_event(2.0, 7, "unicast"),  // the budget-crossing frame itself
      link_event(3.0, 8, "unicast"),  // other nodes keep talking
  };
  const CheckReport report = check_events(events);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues[0]);
  EXPECT_EQ(report.events_seen, events.size());
}

TEST(CheckDepletion, FlagsDuplicateDepletion) {
  const std::vector<obs::TraceEvent> events = {
      depletion_event(2.0, 7, 50.0, 50.0),
      depletion_event(5.0, 7, 50.0, 55.0),
  };
  const CheckReport report = check_events(events);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].find("duplicate energy.depleted"),
            std::string::npos);
}

TEST(CheckDepletion, FlagsCrossingBelowBudget) {
  const CheckReport report =
      check_events({depletion_event(2.0, 7, 50.0, 30.0)});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].find("below budget"), std::string::npos);
}

TEST(CheckDepletion, FlagsPostDepletionTransmissionAndDelivery) {
  const std::vector<obs::TraceEvent> events = {
      depletion_event(2.0, 7, 50.0, 50.0),
      link_event(3.0, 7, "broadcast"),
      link_event(4.0, 7, "deliver"),
  };
  const CheckReport report = check_events(events);
  ASSERT_EQ(report.issues.size(), 2u);
  EXPECT_NE(report.issues[0].find("transmission at t="), std::string::npos);
  EXPECT_NE(report.issues[0].find("after depletion"), std::string::npos);
  EXPECT_NE(report.issues[1].find("delivery at t="), std::string::npos);
}

TEST(BenchCompare, IdenticalCapturesPass) {
  const CompareReport r = compare_bench(kBaseline, kBaseline, 0.0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.rows_compared, 3u);
  // side+latency per 'a' row, energy for 'b'; setup_ms is wall clock and
  // never compared.
  EXPECT_EQ(r.fields_compared, 5u);
}

TEST(BenchCompare, FlagsDriftBeyondTolerance) {
  const std::string current =
      "{\"bench\":\"a\",\"side\":4,\"latency\":10.5,\"setup_ms\":99.0}\n"
      "{\"bench\":\"a\",\"side\":8,\"latency\":25.0,\"setup_ms\":9.9}\n"
      "{\"bench\":\"b\",\"algo\":\"tree\",\"energy\":100.0}\n";
  const CompareReport r = compare_bench(kBaseline, current, 0.10);
  ASSERT_EQ(r.regressions.size(), 1u);  // 10.0->10.5 is 5%: within tolerance
  EXPECT_EQ(r.regressions[0].bench, "a");
  EXPECT_EQ(r.regressions[0].field, "latency");
  EXPECT_DOUBLE_EQ(r.regressions[0].baseline, 20.0);
  EXPECT_DOUBLE_EQ(r.regressions[0].current, 25.0);
  EXPECT_NEAR(r.regressions[0].rel_change(), 0.25, 1e-9);
  EXPECT_FALSE(r.ok());
}

TEST(BenchCompare, FlagsStructuralMismatches) {
  const std::string missing_row =
      "{\"bench\":\"a\",\"side\":4,\"latency\":10.0}\n"
      "{\"bench\":\"b\",\"algo\":\"tree\",\"energy\":100.0}\n";
  const CompareReport rows = compare_bench(kBaseline, missing_row, 0.10);
  EXPECT_FALSE(rows.ok());
  ASSERT_FALSE(rows.mismatches.empty());

  const std::string changed_algo =
      "{\"bench\":\"a\",\"side\":4,\"latency\":10.0,\"setup_ms\":1.0}\n"
      "{\"bench\":\"a\",\"side\":8,\"latency\":20.0,\"setup_ms\":1.0}\n"
      "{\"bench\":\"b\",\"algo\":\"list\",\"energy\":100.0}\n";
  const CompareReport algo = compare_bench(kBaseline, changed_algo, 0.10);
  EXPECT_FALSE(algo.ok());
  EXPECT_NE(algo.mismatches[0].find("identity"), std::string::npos);

  EXPECT_THROW(compare_bench("not json\n", kBaseline, 0.1),
               std::runtime_error);
  EXPECT_THROW(compare_bench("{\"no_bench_key\":1}\n", kBaseline, 0.1),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter validation

TEST(ChromeExport, ProducesValidJsonWithThreadNames) {
  const auto events =
      capture_all_to_origin(4, core::Congestion::kNone);
  std::ostringstream os;
  obs::write_chrome_trace(events, os);
  const JsonValue doc = parse_json(os.str());  // whole file must parse

  const JsonValue* trace_events = doc.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  const JsonArray& arr = trace_events->array();

  std::set<std::int64_t> nodes_in_data;
  std::set<std::int64_t> nodes_named;
  std::map<std::uint64_t, double> last_ts;
  for (const JsonValue& ev : arr) {
    const std::string& name = ev.find("name")->string();
    const auto tid = static_cast<std::int64_t>(ev.find("tid")->number());
    if (ev.find("ph")->string() == "M") {
      ASSERT_EQ(name, "thread_name");
      nodes_named.insert(tid);
      continue;
    }
    nodes_in_data.insert(tid);
    // ts monotone per flow: the Chrome timeline arrows must point forward.
    const JsonValue* flow = ev.find("args")->find("flow");
    if (flow != nullptr) {
      const double ts = ev.find("ts")->number();
      const auto id = static_cast<std::uint64_t>(flow->number());
      auto [it, fresh] = last_ts.try_emplace(id, ts);
      if (!fresh) {
        EXPECT_GE(ts, it->second) << "flow " << id << " went backwards";
        it->second = ts;
      }
    }
  }
  // Every node appearing in data events carries a thread-name record.
  for (std::int64_t node : nodes_in_data) {
    EXPECT_TRUE(nodes_named.count(node)) << "node " << node << " unnamed";
  }
}

// ---------------------------------------------------------------------------
// CLI driver

class InspectCli : public ::testing::Test {
 protected:
  /// Runs a subcommand; returns exit code, fills out_/err_.
  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run_inspect(args, out_, err_);
  }

  /// Writes a capture of the 8x8 all-to-origin run to a temp file.
  std::string write_trace() {
    const std::string path =
        unique_path("analyze_cli.trace.jsonl");
    const auto events =
        capture_all_to_origin(8, core::Congestion::kNodeSerialized);
    std::ofstream out(path);
    obs::write_jsonl(events, out);
    return path;
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const std::string path = unique_path(name);
    std::ofstream(path) << text;
    return path;
  }

  /// Temp path namespaced by the running test: ctest launches each gtest
  /// case as its own parallel process, so a fixed file name races.
  static std::string unique_path(const std::string& name) {
    return testing::TempDir() +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + name;
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(InspectCli, FlowsTable) {
  ASSERT_EQ(run({"flows", write_trace(), "--limit", "5"}), 0);
  EXPECT_NE(out_.str().find("latency"), std::string::npos);
  EXPECT_NE(out_.str().find("5 of 64 flows"), std::string::npos);
}

TEST_F(InspectCli, CriticalPath) {
  ASSERT_EQ(run({"critical-path", write_trace()}), 0);
  EXPECT_NE(out_.str().find("critical path:"), std::string::npos);
  EXPECT_NE(out_.str().find("queueing"), std::string::npos);
}

TEST_F(InspectCli, EnergyMap) {
  ASSERT_EQ(run({"energy-map", write_trace()}), 0);
  EXPECT_NE(out_.str().find("virtual layer"), std::string::npos);
  EXPECT_NE(out_.str().find("hotspot"), std::string::npos);
  EXPECT_NE(out_.str().find("imbalance"), std::string::npos);
}

TEST_F(InspectCli, EnergyMapOfAFarVirtualNode) {
  const std::string path = write_file(
      "far.jsonl",
      R"({"t":1.0,"node":1099511627775,"cat":"vnet","ph":"i",)"
      R"("name":"deliver","flow":0,"args":{"size":1.0}})"
      "\n");
  ASSERT_EQ(run({"energy-map", path}), 0) << err_.str();
  EXPECT_NE(out_.str().find("across 1 nodes"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("hotspot: node 1099511627775"), std::string::npos)
      << out_.str();
}

TEST_F(InspectCli, HistogramSummaries) {
  ASSERT_EQ(run({"histogram", write_trace()}), 0);
  EXPECT_NE(out_.str().find("latency"), std::string::npos);
  EXPECT_NE(out_.str().find("p95"), std::string::npos);
}

TEST_F(InspectCli, CheckPassesAndFails) {
  const std::string good = write_trace();
  ASSERT_EQ(run({"check", good}), 0);
  EXPECT_NE(out_.str().find("all invariants hold"), std::string::npos);

  // Corrupt the capture: strip the first deliver line.
  std::ifstream in(good);
  std::string line;
  std::string bad_text;
  bool dropped = false;
  while (std::getline(in, line)) {
    if (!dropped && line.find("\"deliver\"") != std::string::npos) {
      dropped = true;
      continue;
    }
    bad_text += line + "\n";
  }
  ASSERT_TRUE(dropped);
  const std::string bad = write_file("analyze_cli.bad.jsonl", bad_text);
  EXPECT_EQ(run({"check", bad}), 1);
  EXPECT_NE(out_.str().find("FAIL"), std::string::npos);
}

// Metrics snapshots are untrusted input: a count that is not a
// non-negative integer below 2^64 is a finding that names it, not a cast.
TEST_F(InspectCli, CheckFlagsSnapshotValuesThatAreNotCounts) {
  const std::string trace = write_trace();
  const std::string give_up = write_file(
      "give_up.json", R"({"arq.counters":{"arq.give_up":1e300}})");
  EXPECT_EQ(run({"check", trace, "--metrics", give_up}), 1) << err_.str();
  EXPECT_NE(out_.str().find("FAIL metrics: arq.give_up 1.0000000000000001e+300"
                            " is not a count"),
            std::string::npos)
      << out_.str();

  const std::string capture = write_file(
      "capture.json", R"({"trace.dropped":1e300,"trace.captured":-5})");
  EXPECT_EQ(run({"check", trace, "--metrics", capture}), 1) << err_.str();
  EXPECT_NE(out_.str().find("FAIL metrics: trace.dropped "
                            "1.0000000000000001e+300 is not a count"),
            std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("FAIL metrics: trace.captured -5 is not a count"),
            std::string::npos)
      << out_.str();
  EXPECT_EQ(out_.str().find("dropped 0 event(s)"), std::string::npos)
      << out_.str();
}

TEST_F(InspectCli, BenchCompareGate) {
  const std::string base = write_file(
      "analyze_cli.base.jsonl",
      "{\"bench\":\"x\",\"latency\":10.0}\n{\"bench\":\"y\",\"e\":5.0}\n");
  const std::string same = write_file(
      "analyze_cli.same.jsonl",
      "{\"bench\":\"x\",\"latency\":10.4}\n{\"bench\":\"y\",\"e\":5.0}\n");
  const std::string worse = write_file(
      "analyze_cli.worse.jsonl",
      "{\"bench\":\"x\",\"latency\":14.0}\n{\"bench\":\"y\",\"e\":5.0}\n");
  EXPECT_EQ(run({"bench-compare", "--baseline", base, "--current", same,
                 "--tolerance", "10%"}),
            0);
  EXPECT_NE(out_.str().find("no regressions"), std::string::npos);
  EXPECT_EQ(run({"bench-compare", "--baseline", base, "--current", worse,
                 "--tolerance", "10%"}),
            1);
  EXPECT_NE(out_.str().find("regression"), std::string::npos);
}

TEST_F(InspectCli, UsageErrors) {
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({"no-such-command"}), 2);
  EXPECT_EQ(run({"flows", "/no/such/file.jsonl"}), 2);
  EXPECT_EQ(run({"flows", "a.jsonl", "--bogus", "1"}), 2);
  EXPECT_EQ(run({"bench-compare", "--baseline", "only"}), 2);
  EXPECT_EQ(run({"help"}), 0);
  // Count flags take decimal digits only, and a --side whose square would
  // overflow or a bucket count past the ceiling is refused; each error names
  // the flag and its value.
  const std::string trace = write_trace();
  for (const auto& [cmd, flag, value] :
       {std::tuple{"energy-map", "--side", "4294967296"},
        std::tuple{"energy-map", "--side", "-1"},
        std::tuple{"flows", "--limit", "3x"},
        std::tuple{"histogram", "--buckets", "1000000000"}}) {
    EXPECT_EQ(run({cmd, trace, flag, value}), 2) << cmd << " " << value;
    EXPECT_NE(err_.str().find(std::string(flag) + " " + value),
              std::string::npos)
        << err_.str();
  }
}

}  // namespace
