// Observability layer: trace events, sinks, exporters, provenance
// reconstruction, and the unified metrics registry.
//
// The provenance tests are the heart: they prove a message's full path and
// queueing delay can be reconstructed from a captured trace alone — on the
// virtual layer under contention, and across the Section-5 emulation
// boundary where one overlay send fans into many physical link hops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/virtual_network.h"
#include "emulation/physical_stack.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/scoped_timer.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tests/trace_helpers.h"

namespace {

using namespace wsn;

const obs::AttrValue* find_attr(const obs::TraceEvent& ev, obs::AttrKey key) {
  for (const auto& a : ev.attrs) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

double attr_num(const obs::TraceEvent& ev, obs::AttrKey key) {
  const obs::AttrValue* v = find_attr(ev, key);
  if (v == nullptr) ADD_FAILURE() << "missing attr " << key.str();
  if (v == nullptr) return 0.0;
  if (const auto* d = std::get_if<double>(v)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(v)) {
    return static_cast<double>(*u);
  }
  if (const auto* i = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*i);
  }
  ADD_FAILURE() << "attr " << key.str() << " is not numeric";
  return 0.0;
}

TEST(RingBufferSink, KeepsMostRecentAcrossWraparound) {
  obs::RingBufferSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.accept({static_cast<double>(i), i, obs::Category::kApp, 'i', "hop",
                 static_cast<std::uint64_t>(i),
                 {}});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].node, static_cast<std::int64_t>(6 + i));
  }
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(RingBufferSink, ZeroCapacityDropsEverything) {
  obs::RingBufferSink sink(0);
  sink.accept({0.0, 0, obs::Category::kApp, 'i', "hop", 0, {}});
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(Tracer, DisabledCategoriesEmitNothing) {
  obs::RingBufferSink sink(16);
  obs::ScopedTrace guard(sink, 1u << static_cast<unsigned>(
                                   obs::Category::kLink));
  EXPECT_TRUE(obs::tracer().enabled(obs::Category::kLink));
  EXPECT_FALSE(obs::tracer().enabled(obs::Category::kVirtual));

  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  vnet.send({0, 0}, {3, 3}, 0.0);
  sim.run();
  EXPECT_EQ(sink.size(), 0u) << "kVirtual events leaked past the mask";
}

TEST(Tracer, ScopedTraceRestoresPreviousState) {
  obs::RingBufferSink outer(4);
  {
    obs::ScopedTrace a(outer, obs::kAllCategories);
    {
      obs::NullSink inner;
      obs::ScopedTrace b(inner, 0);
      EXPECT_FALSE(obs::tracer().enabled(obs::Category::kApp));
    }
    EXPECT_TRUE(obs::tracer().enabled(obs::Category::kApp));
    obs::tracer().emit({1.0, 2, obs::Category::kApp, 'i', "send", 0, {}});
  }
  EXPECT_FALSE(obs::tracer().enabled(obs::Category::kApp));
  EXPECT_EQ(outer.size(), 1u);
}

TEST(Trace, BuildingAndEmittingAnEventAllocatesNothing) {
  // The name, the keys and the coded value are one-byte ids and the
  // attributes sit in the event, so building and emitting one with as many
  // attributes as any emission site uses costs no heap allocation.
  obs::NullSink sink;
  obs::ScopedTrace guard(sink, obs::kAllCategories);
  const std::uint64_t before = obs::global_alloc_stats().count;
  for (int i = 0; i < 100; ++i) {
    obs::tracer().emit({static_cast<double>(i), i, obs::Category::kReliability,
                        'i', "fd.corrupt", 0,
                        {{"target", obs::AttrCode("routes")},
                         {"row", std::int64_t{3}},
                         {"col", std::int64_t{-1}},
                         {"epoch", std::uint64_t{7}},
                         {"leader", static_cast<std::uint64_t>(i)},
                         {"bound", 42.5}}});
  }
  EXPECT_EQ(obs::global_alloc_stats().count - before, 0u);
  EXPECT_EQ(sink.accepted(), 100u);
}

TEST(JsonlExport, RoundTripsLosslessly) {
  // Typing convention: doubles always carry '.'/exponent; negative integers
  // are int64; non-negative integers are uint64. Events that follow it
  // (as every emitter in the tree does) survive the round trip bit-exact.
  std::vector<obs::TraceEvent> events;
  events.push_back({0.5, -1, obs::Category::kProtocol, 'B', "reduce", 7,
                    {{"row", static_cast<std::int64_t>(-42)},
                     {"seq", std::uint64_t{1} << 63},
                     {"depart", 0.1},
                     {"wait", 3.0},
                     {"value", -2.5e-7},
                     {"why", obs::AttrCode("no_route")}}});
  events.push_back({12.25, 9, obs::Category::kCollective, 'E', "reduce", 7,
                    {}});

  std::ostringstream out;
  obs::write_jsonl(events, out);
  const auto parsed = testing_helpers::parse_jsonl_text(out.str());
  ASSERT_EQ(parsed.size(), events.size());
  EXPECT_EQ(parsed[0], events[0]);
  EXPECT_EQ(parsed[1], events[1]);
}

TEST(JsonlExport, ParseRejectsGarbage) {
  EXPECT_THROW(obs::parse_jsonl_line("{\"t\":1.0,\"node\":0,"),
               std::runtime_error);
}

TEST(JsonlExport, ParseAcceptsIntegerTypedTime) {
  // Foreign producers often emit whole-number times without a decimal
  // point; the reader must coerce instead of dying on the variant type.
  const obs::TraceEvent ev = obs::parse_jsonl_line(
      "{\"t\":5,\"node\":2,\"cat\":\"vnet\",\"ph\":\"i\",\"name\":\"send\","
      "\"flow\":1,\"args\":{}}");
  EXPECT_DOUBLE_EQ(ev.time, 5.0);
  EXPECT_EQ(ev.node, 2);
}

TEST(JsonlExport, ParseFailuresAreCleanRuntimeErrors) {
  // Every malformed shape must surface as std::runtime_error with a line
  // number — never std::bad_variant_access or a silent skip.
  const char* bad_lines[] = {
      // string where a number is required
      "{\"t\":\"x\",\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",\"name\":\"send\","
      "\"flow\":0,\"args\":{}}",
      // truncated mid-object
      "{\"t\":1.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",\"na",
      // not an object at all
      "[1,2,3]",
      // unknown category
      "{\"t\":1.0,\"node\":0,\"cat\":\"warp\",\"ph\":\"i\",\"name\":\"send\","
      "\"flow\":0,\"args\":{}}",
      // unknown top-level key
      "{\"t\":1.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",\"name\":\"send\","
      "\"flow\":0,\"extra\":1,\"args\":{}}",
      // multi-char phase
      "{\"t\":1.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"BE\",\"name\":\"send\","
      "\"flow\":0,\"args\":{}}",
      // trailing garbage after a complete object
      "{\"t\":1.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",\"name\":\"send\","
      "\"flow\":0,\"args\":{}} trailing",
  };
  for (const char* line : bad_lines) {
    EXPECT_THROW(obs::parse_jsonl_line(line), std::runtime_error) << line;
  }
}

TEST(JsonlExport, ParseErrorsCarryLineNumbers) {
  try {
    testing_helpers::parse_jsonl_text(
        "{\"t\":1.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",\"name\":\"send\","
        "\"flow\":0,\"args\":{}}\n"
        "{broken\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(JsonlExport, ParseRejectsMalformedNumbersNamingTheLine) {
  // "node":- once read as node 0 and "node":1-2 as node 1.
  for (const std::string node : {"-", "1-2", "--5", "1.2.3", "01"}) {
    const std::string line =
        "{\"t\":1.0,\"node\":" + node +
        ",\"cat\":\"vnet\",\"ph\":\"i\",\"name\":\"send\",\"flow\":0,"
        "\"args\":{}}";
    try {
      obs::parse_jsonl_line(line, 7);
      ADD_FAILURE() << line << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("json: line 7: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(JsonlExport, UnknownVocabularyNamesTheLine) {
  // A well-formed line with a name, key or string value outside the
  // vocabulary is refused as a VocabularyError that names its line.
  const std::string head =
      "{\"t\":1.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",";
  const std::pair<std::string, std::string> cases[] = {
      {head + "\"name\":\"teleport\",\"flow\":0,\"args\":{}}",
       "unknown event name: teleport"},
      {head + "\"name\":\"send\",\"flow\":0,\"args\":{\"warp\":1}}",
       "unknown attribute key: warp"},
      {head + "\"name\":\"drop\",\"flow\":0,\"args\":{\"why\":\"bored\"}}",
       "unknown attribute value: bored"},
  };
  for (const auto& [line, reason] : cases) {
    try {
      obs::parse_jsonl_line(line, 4);
      ADD_FAILURE() << line << " parsed";
    } catch (const obs::VocabularyError& e) {
      EXPECT_EQ(std::string(e.what()), "json: line 4: " + reason);
    }
  }
}

TEST(JsonlExport, OddPhasesRoundTrip) {
  // A phase is one byte, any byte: the writer escapes it like any string.
  for (const char phase : {'"', '\\', '\n', '\x01'}) {
    obs::TraceEvent ev;
    ev.phase = phase;
    std::string line;
    obs::append_jsonl(ev, line);
    EXPECT_EQ(obs::parse_jsonl_line(line), ev) << line;
  }
}

TEST(ChromeExport, ProducesLoadableSkeleton) {
  std::vector<obs::TraceEvent> events;
  events.push_back({2.0, 5, obs::Category::kVirtual, 'i', "send", 1,
                    {{"hops", std::uint64_t{3}}}});
  std::ostringstream out;
  obs::write_chrome_trace(events, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // 1 cost-model unit = 1 ms = 1000 us.
  EXPECT_NE(json.find("\"ts\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":5"), std::string::npos);
}

// -- Provenance: virtual layer under per-node transmitter serialization --

TEST(Provenance, ReconstructsQueuedMultiHopSend) {
  obs::RingBufferSink sink(1 << 12);
  obs::ScopedTrace guard(sink, obs::kAllCategories);

  const std::size_t side = 4;
  sim::Simulator sim(1);
  core::GridTopology grid(side);
  core::VirtualNetwork vnet(sim, grid, core::uniform_cost_model(),
                            core::LeaderPlacement::kNorthWest,
                            core::Congestion::kNodeSerialized);
  // Two messages leave the same transmitter at t=0: the second must queue
  // behind the first at every shared relay.
  vnet.send({0, 0}, {0, 3}, 0.0);
  vnet.send({0, 0}, {0, 3}, 0.0);
  sim.run();

  // Group the trace by flow id.
  std::map<std::uint64_t, std::vector<obs::TraceEvent>> flows;
  for (const auto& ev : sink.events()) {
    ASSERT_NE(ev.flow, 0u);
    flows[ev.flow].push_back(ev);
  }
  ASSERT_EQ(flows.size(), 2u);

  const double hop_latency = core::uniform_cost_model().hop_latency(1.0);
  bool saw_queueing = false;
  for (const auto& [flow, events] : flows) {
    const obs::TraceEvent* send = nullptr;
    const obs::TraceEvent* deliver = nullptr;
    std::vector<const obs::TraceEvent*> hops;
    for (const auto& ev : events) {
      if (ev.name == "send") send = &ev;
      if (ev.name == "deliver") deliver = &ev;
      if (ev.name == "hop") hops.push_back(&ev);
    }
    ASSERT_NE(send, nullptr);
    ASSERT_NE(deliver, nullptr);
    const auto expected_hops = static_cast<std::size_t>(attr_num(*send, "hops"));
    ASSERT_EQ(hops.size(), expected_hops);

    // The hop chain is a connected path: send node -> ... -> deliver node.
    EXPECT_EQ(hops.front()->node, send->node);
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      EXPECT_EQ(static_cast<std::int64_t>(attr_num(*hops[i], "next")),
                hops[i + 1]->node);
    }
    EXPECT_EQ(static_cast<std::int64_t>(attr_num(*hops.back(), "next")),
              deliver->node);
    EXPECT_EQ(static_cast<std::int64_t>(attr_num(*send, "dst")),
              deliver->node);

    // The latency decomposes exactly: transit + recorded queueing waits.
    double waits = 0.0;
    for (const auto* h : hops) waits += attr_num(*h, "wait");
    EXPECT_DOUBLE_EQ(deliver->time - send->time,
                     static_cast<double>(expected_hops) * hop_latency + waits);
    if (waits > 0.0) saw_queueing = true;
  }
  EXPECT_TRUE(saw_queueing) << "test failed to provoke contention";
}

// -- Provenance: across the Section-5 emulation boundary --

TEST(Provenance, OverlaySendTracksPhysicalHops) {
  const std::size_t grid_side = 4;
  emulation::PhysicalStack stack(grid_side, grid_side * grid_side * 8, 1.4, 11);
  ASSERT_TRUE(stack.healthy());

  // Arm tracing only after setup so the capture holds exactly one send.
  obs::RingBufferSink sink(1 << 12);
  obs::ScopedTrace guard(sink, obs::kAllCategories);

  const core::GridCoord src{0, 0};
  const core::GridCoord dst{3, 3};
  bool received = false;
  stack.overlay->set_receiver(dst, [&](const core::VirtualMessage&) {
    received = true;
  });
  stack.overlay->send(src, dst, std::any{1.0}, 1.0);
  stack.sim.run();
  ASSERT_TRUE(received);

  const obs::TraceEvent* overlay_send = nullptr;
  const obs::TraceEvent* overlay_deliver = nullptr;
  std::vector<const obs::TraceEvent*> unicasts;
  std::vector<const obs::TraceEvent*> link_delivers;
  const std::vector<obs::TraceEvent> captured = sink.events();
  for (const auto& ev : captured) {
    if (ev.category == obs::Category::kOverlay && ev.name == "send") {
      overlay_send = &ev;
    }
    if (ev.category == obs::Category::kOverlay && ev.name == "deliver") {
      overlay_deliver = &ev;
    }
    if (ev.category == obs::Category::kLink && ev.name == "unicast") {
      unicasts.push_back(&ev);
    }
    if (ev.category == obs::Category::kLink && ev.name == "deliver") {
      link_delivers.push_back(&ev);
    }
  }
  ASSERT_NE(overlay_send, nullptr);
  ASSERT_NE(overlay_deliver, nullptr);
  ASSERT_FALSE(unicasts.empty());

  // One flow id spans both layers: the physical hops beneath the overlay
  // send all carry the id the overlay allocated.
  const std::uint64_t flow = overlay_send->flow;
  ASSERT_NE(flow, 0u);
  EXPECT_EQ(overlay_deliver->flow, flow);
  for (const auto* u : unicasts) EXPECT_EQ(u->flow, flow);
  for (const auto* d : link_delivers) EXPECT_EQ(d->flow, flow);

  // The physical hop chain is connected end to end: it starts at the node
  // bound to the source cell, each transmission is received by its
  // addressee, and the final receiver is where the overlay delivers.
  ASSERT_EQ(link_delivers.size(), unicasts.size());
  EXPECT_EQ(unicasts.front()->node, overlay_send->node);
  for (std::size_t i = 0; i < unicasts.size(); ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(attr_num(*unicasts[i], "to")),
              link_delivers[i]->node);
    EXPECT_EQ(static_cast<std::int64_t>(attr_num(*link_delivers[i], "from")),
              unicasts[i]->node);
    if (i + 1 < unicasts.size()) {
      EXPECT_EQ(link_delivers[i]->node, unicasts[i + 1]->node);
    }
  }
  EXPECT_EQ(link_delivers.back()->node, overlay_deliver->node);
  EXPECT_EQ(overlay_deliver->node,
            static_cast<std::int64_t>(
                stack.binding_result.leader_of(dst, grid_side)));
  // Physical routing can never beat the virtual hop count.
  EXPECT_GE(unicasts.size(),
            static_cast<std::size_t>(manhattan(src, dst)));
}

// -- Unified metrics registry --

TEST(MetricsRegistry, SnapshotMatchesEnergyReportExactly) {
  sim::Simulator sim(3);
  core::VirtualNetwork vnet(sim, core::GridTopology(8),
                            core::uniform_cost_model());
  for (std::int32_t i = 0; i < 8; ++i) {
    vnet.send({0, i}, {7, 7 - i}, 0.0, 1.0 + 0.25 * i);
    vnet.compute({static_cast<std::int32_t>(i % 8), 0}, 3.0);
  }
  sim.run();

  obs::MetricsRegistry registry;
  vnet.register_metrics(registry);

  const net::EnergyReport report = vnet.ledger().report();
  const net::EnergyReport snap = registry.ledger_snapshot("vnet.energy");
  EXPECT_EQ(snap.total, report.total);
  EXPECT_EQ(snap.mean, report.mean);
  EXPECT_EQ(snap.stddev, report.stddev);
  EXPECT_EQ(snap.cv, report.cv);
  EXPECT_EQ(snap.max, report.max);
  EXPECT_EQ(snap.min, report.min);
  EXPECT_EQ(snap.tx, report.tx);
  EXPECT_EQ(snap.rx, report.rx);
  EXPECT_EQ(snap.compute, report.compute);

  EXPECT_EQ(registry.counter("vnet.counters", "vnet.send"), 8u);
  EXPECT_EQ(registry.gauge("vnet.total_hops"),
            static_cast<double>(vnet.total_hops()));
}

TEST(MetricsRegistry, JsonSnapshotIsCompleteAndStable) {
  sim::Simulator sim(3);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  vnet.send({0, 0}, {3, 3}, 0.0);
  sim.run();

  obs::MetricsRegistry registry;
  vnet.register_metrics(registry);
  registry.add_gauge("custom.answer", [] { return 42.0; });

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"vnet.counters\""), std::string::npos);
  EXPECT_NE(json.find("\"vnet.send\":1"), std::string::npos);
  EXPECT_NE(json.find("\"vnet.energy\""), std::string::npos);
  EXPECT_NE(json.find("\"custom.answer\":42.0"), std::string::npos);
  // Polling twice with unchanged state is byte-identical.
  EXPECT_EQ(registry.to_json(), json);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_EQ(out.str(), json + "\n");
}

TEST(MetricsRegistry, PhysicalStackRegistersWholeStack) {
  emulation::PhysicalStack stack(2, 24, 1.4, 5);
  ASSERT_TRUE(stack.healthy());
  obs::MetricsRegistry registry;
  stack.register_metrics(registry);

  const net::EnergyReport link_energy =
      registry.ledger_snapshot("overlay.link.energy");
  EXPECT_EQ(link_energy.total, stack.ledger->total());
  EXPECT_EQ(registry.gauge("emulation.broadcasts"),
            static_cast<double>(stack.emulation_result.broadcasts));
  EXPECT_EQ(registry.gauge("binding.converged_at"),
            stack.binding_result.converged_at);
}

// -- Satellites: CounterSet, wall-clock timer --

// A stand-in for one layer's counter enum and name table.
enum class Probe : std::uint8_t {
  kAudit, kBeat, kRosterConflict, kSync, kCount
};
constexpr std::string_view kProbeNames[] = {"fd.audit", "fd.beat",
                                            "fd.roster_conflict", "fd.sync"};
static_assert(sim::counter_table_ok<Probe>(kProbeNames));

TEST(CounterSet, AllListsNonZeroCountersInNameOrder) {
  sim::CounterSet counters(kProbeNames);
  counters.add(Probe::kSync, 2);
  counters.add(Probe::kAudit);
  const auto all = counters.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "fd.audit");
  EXPECT_EQ(all[0].second, 1u);
  EXPECT_EQ(all[1].first, "fd.sync");
  EXPECT_EQ(all[1].second, 2u);
  EXPECT_EQ(counters.get("fd.sync"), 2u);
  EXPECT_EQ(counters.get("fd.beat"), 0u);  // in the table, never added
  EXPECT_EQ(counters.get("fd.no_such_counter"), 0u);
}

TEST(CounterSet, AddsAllocateNothing) {
  // "fd.roster_conflict" is longer than std::string's in-place buffer, so a
  // string-keyed add would build a heap string every time.
  sim::CounterSet counters(kProbeNames);
  const std::uint64_t before = obs::global_alloc_stats().count;
  for (int i = 0; i < 1000; ++i) counters.add(Probe::kRosterConflict);
  const std::uint64_t allocs = obs::global_alloc_stats().count - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(counters.get("fd.roster_conflict"), 1000u);
}

TEST(CounterSet, RegistrySectionListsExactlyTheNonZeroCountersInNameOrder) {
  sim::CounterSet counters(kProbeNames);
  counters.add(Probe::kSync);
  counters.add(Probe::kBeat, 3);
  obs::MetricsRegistry registry;
  registry.add_counters("fd.counters", &counters);
  EXPECT_EQ(registry.to_json(),
            R"({"fd.counters":{"fd.beat":3,"fd.sync":1}})");
  EXPECT_EQ(registry.counter("fd.counters", "fd.beat"), 3u);
  EXPECT_EQ(registry.counter("fd.counters", "fd.audit"), 0u);
}

TEST(ScopedTimer, MeasuresNonNegativeWallClock) {
  double ms = -1.0;
  {
    obs::ScopedTimer timer(&ms);
    volatile double sink_v = 0.0;
    for (int i = 0; i < 1000; ++i) sink_v = sink_v + static_cast<double>(i);
  }
  EXPECT_GE(ms, 0.0);
}

}  // namespace
