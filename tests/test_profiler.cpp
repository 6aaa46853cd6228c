// Tests for the host-side self-profiling layer (obs/profiler) and its
// integrations: non-perturbation (simulated traces are byte-identical with
// the profiler armed or disarmed), span nesting / self-time arithmetic,
// allocation counters, phases, the span log, kernel telemetry
// (EventQueue introspection + Simulator::register_metrics), capture-health
// checking, the bench-compare wall-clock field class, the Chrome host-time
// track, and the `wsn-inspect perf` subcommand.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/field.h"
#include "app/topographic.h"
#include "core/grid_topology.h"
#include "emulation/physical_stack.h"
#include "obs/analyze/bench_compare.h"
#include "obs/analyze/check.h"
#include "obs/analyze/cli.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

using namespace wsn;
using namespace wsn::obs::analyze;

/// Burns host time so a span has measurable, strictly positive duration.
void spin_at_least_ns(std::uint64_t ns) {
  const auto t0 = std::chrono::steady_clock::now();
  while (static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - t0)
                 .count()) < ns) {
  }
}

/// One deterministic full-stack run (overlay all-cells-to-collector over an
/// ARQ'd physical deployment), captured as JSONL. The profiler must not
/// change a byte of this, whatever its state.
std::string campaign_trace_jsonl() {
  obs::RingBufferSink sink(1 << 18);
  emulation::PhysicalStack stack(4, 60, 1.3, 3);
  stack.enable_arq();
  {
    obs::ScopedTrace trace(sink);
    for (const core::GridCoord& c : core::GridTopology(4).all_coords()) {
      if (c.row == 0 && c.col == 0) continue;
      stack.overlay->send(c, {0, 0}, int{1}, 1.0);
    }
    stack.sim.run();
  }
  std::ostringstream os;
  obs::write_jsonl(sink.events(), os);
  return os.str();
}

std::string unique_path(const std::string& name) {
  return testing::TempDir() +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
         name;
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = unique_path(name);
  std::ofstream(path) << text;
  return path;
}

// ---------------------------------------------------------------------------
// Non-perturbation: the acceptance criterion of the profiling layer.

TEST(NonPerturbation, TraceByteIdenticalProfilerOnVsOff) {
  obs::SimProfiler& prof = obs::profiler();
  prof.set_span_log_capacity(1 << 12);
  prof.arm();
  const std::string with_profiler = campaign_trace_jsonl();
  prof.disarm();
  // The profiled run must actually have recorded something, or the test
  // proves nothing.
  EXPECT_GT(prof.bucket(obs::ProfCat::kDispatch).count, 0u);
  EXPECT_GT(prof.bucket(obs::ProfCat::kLinkTx).count, 0u);
  EXPECT_GT(prof.bucket(obs::ProfCat::kArq).count, 0u);
  EXPECT_GT(prof.bucket(obs::ProfCat::kTraceEmit).count, 0u);

  const std::string without_profiler = campaign_trace_jsonl();
  EXPECT_EQ(with_profiler, without_profiler);
  EXPECT_FALSE(with_profiler.empty());
}

// ---------------------------------------------------------------------------
// Span accounting.

TEST(SimProfiler, SelfTimeExcludesNestedChildExactly) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  {
    obs::ProfSpan outer(obs::ProfCat::kLinkTx);
    spin_at_least_ns(20'000);
    {
      obs::ProfSpan inner(obs::ProfCat::kSink);
      spin_at_least_ns(20'000);
    }
    spin_at_least_ns(1'000);
  }
  prof.disarm();
  const obs::ProfBucket& outer_b = prof.bucket(obs::ProfCat::kLinkTx);
  const obs::ProfBucket& inner_b = prof.bucket(obs::ProfCat::kSink);
  ASSERT_EQ(outer_b.count, 1u);
  ASSERT_EQ(inner_b.count, 1u);
  // The parent's child accumulator is exactly the inner span's duration, so
  // this identity is exact, not approximate.
  EXPECT_EQ(outer_b.self_ns + inner_b.total_ns, outer_b.total_ns);
  EXPECT_GT(inner_b.total_ns, 0u);
  EXPECT_GT(outer_b.self_ns, 0u);
  EXPECT_EQ(inner_b.self_ns, inner_b.total_ns);  // leaf span: all self
  EXPECT_LE(outer_b.min_ns, outer_b.max_ns);
}

TEST(SimProfiler, DisarmedSpansRecordNothing) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  prof.disarm();
  {
    obs::ProfSpan span(obs::ProfCat::kDispatch);
    spin_at_least_ns(1'000);
  }
  EXPECT_EQ(prof.bucket(obs::ProfCat::kDispatch).count, 0u);
  const std::uint64_t frozen = prof.elapsed_ns();
  spin_at_least_ns(10'000);
  EXPECT_EQ(prof.elapsed_ns(), frozen);  // frozen at disarm, not advancing
}

TEST(SimProfiler, PhasesPartitionWindowAndAttributeAllocations) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  prof.begin_phase("setup");
  {
    std::vector<char> ballast(1 << 20);
    ballast[0] = 1;
    EXPECT_EQ(ballast[0], 1);
  }
  prof.begin_phase("run");
  prof.end_phase();
  prof.disarm();
  const auto& phases = prof.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "setup");
  EXPECT_EQ(phases[1].name, "run");
  EXPECT_NE(phases[0].end_ns, 0u);
  EXPECT_LE(phases[0].end_ns, phases[1].start_ns);
  EXPECT_GE(phases[0].alloc.count, 1u);
  EXPECT_GE(phases[0].alloc.bytes, static_cast<std::uint64_t>(1 << 20));
}

TEST(SimProfiler, GlobalAllocCountersAreMonotonic) {
  const obs::AllocStats before = obs::global_alloc_stats();
  auto* p = new std::vector<int>(256);
  const obs::AllocStats after = obs::global_alloc_stats();
  delete p;
  EXPECT_GT(after.count, before.count);
  EXPECT_GE(after.bytes, before.bytes + 256 * sizeof(int));
}

TEST(SimProfiler, SpanLogKeepsPrefixAndCountsDrops) {
  obs::SimProfiler& prof = obs::profiler();
  prof.set_span_log_capacity(2);
  prof.arm();
  { obs::ProfSpan a(obs::ProfCat::kLinkTx); }
  { obs::ProfSpan b(obs::ProfCat::kLinkRx); }
  { obs::ProfSpan c(obs::ProfCat::kSink); }
  prof.disarm();
  ASSERT_EQ(prof.span_log().size(), 2u);
  EXPECT_EQ(prof.span_log()[0].cat, obs::ProfCat::kLinkTx);
  EXPECT_EQ(prof.span_log()[1].cat, obs::ProfCat::kLinkRx);
  EXPECT_EQ(prof.span_log_dropped(), 1u);
  prof.set_span_log_capacity(0);
}

TEST(SimProfiler, ToJsonRoundTripsThroughJsonReader) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  {
    obs::ProfSpan span(obs::ProfCat::kDispatch);
    spin_at_least_ns(1'000);
  }
  prof.disarm();
  prof.note_sim(4.0, 1000);
  const JsonValue doc = parse_json(prof.to_json());
  const JsonValue* p = doc.find("prof");
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->find("host_ns")->number(), 0.0);
  EXPECT_DOUBLE_EQ(p->find("sim_time")->number(), 4.0);
  EXPECT_DOUBLE_EQ(p->find("sim_events")->number(), 1000.0);
  EXPECT_GT(p->find("events_per_sec")->number(), 0.0);
  const JsonValue* spans = p->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_NE(spans->find("dispatch"), nullptr);
  EXPECT_DOUBLE_EQ(spans->find("dispatch")->find("count")->number(), 1.0);
  ASSERT_NE(p->find("alloc"), nullptr);
  ASSERT_NE(p->find("phases"), nullptr);
}

TEST(SimProfiler, RegistersProfGauges) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  { obs::ProfSpan span(obs::ProfCat::kArq); }
  prof.disarm();
  prof.note_sim(1.0, 50);
  obs::MetricsRegistry registry;
  prof.register_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("prof.arq.count"), 1.0);
  EXPECT_GT(registry.gauge("prof.events_per_sec"), 0.0);
  EXPECT_GE(registry.gauge("prof.host_ms"), 0.0);
  EXPECT_GE(registry.gauge("prof.alloc_count"), 0.0);
}

TEST(SimProfiler, ProgramWorkIsBilledToApp) {
  // The Figure 4 program runs inside the ARQ receive span and the kernel's
  // dispatch span; its own span keeps the merge work out of their self
  // time.
  emulation::PhysicalStack stack(4, 60, 1.3, 3);
  stack.enable_arq();
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  const auto outcome =
      app::run_topographic_query(*stack.overlay, app::full_grid(4));
  prof.disarm();
  EXPECT_EQ(outcome.regions.size(), 1u);
  const obs::ProfBucket& app_bucket = prof.bucket(obs::ProfCat::kApp);
  EXPECT_GT(app_bucket.count, 0u);
  EXPECT_GT(app_bucket.self_ns, 0u);
  EXPECT_STREQ(obs::prof_cat_name(obs::ProfCat::kApp), "app");
}

// ---------------------------------------------------------------------------
// Kernel telemetry.

TEST(EventQueue, IntrospectionAccessorsTrackLifecycle) {
  sim::EventQueue q;
  const sim::EventId a = q.schedule(1.0, [] {});
  const sim::EventId b = q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  (void)a;
  EXPECT_EQ(q.live(), 3u);
  EXPECT_EQ(q.total_scheduled(), 3u);
  EXPECT_EQ(q.peak_size(), 3u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.live(), 2u);
  EXPECT_EQ(q.tombstones(), 1u);
  q.dispatch();  // t=1.0
  q.dispatch();  // t=3.0, lazily skipping the tombstoned t=2.0 entry
  EXPECT_EQ(q.cancelled_skips(), 1u);
  EXPECT_EQ(q.tombstones(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_size(), 3u);  // high-water mark survives the drain
}

TEST(EventQueue, CancelStaysExactAcrossSlotReuse) {
  // 2^20 + 2 events through one slot. A long-fired id must not cancel
  // anything, however often its slot has been reused since.
  sim::EventQueue q;
  const std::size_t n = (1u << 20) + 2;
  const sim::EventId first = q.schedule(0.0, [] {});
  q.dispatch();
  for (std::size_t i = 1; i < n; ++i) {
    q.schedule(static_cast<double>(i), [] {});
    q.dispatch();
  }
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.live(), 0u);
  EXPECT_EQ(q.tombstones(), 0u);
  EXPECT_EQ(q.total_scheduled(), n);
  // Slot 0 now holds a live event; id 0 still names nothing.
  const sim::EventId live = q.schedule(static_cast<double>(n), [] {});
  EXPECT_FALSE(q.cancel(0));
  EXPECT_EQ(q.live(), 1u);
  EXPECT_EQ(q.tombstones(), 0u);
  EXPECT_TRUE(q.cancel(live));
  EXPECT_EQ(q.live(), 0u);
  EXPECT_EQ(q.tombstones(), 1u);
}

TEST(Simulator, KernelGaugesReflectQueueState) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  sim.register_metrics(registry);
  sim.schedule_in(1.0, [] {});
  const sim::EventId doomed = sim.schedule_in(2.0, [] {});
  // A live event *behind* the tombstone, so popping it exercises the lazy
  // skip (a tombstone at the tail of the heap is never popped past).
  sim.schedule_in(3.0, [] {});
  sim.cancel(doomed);
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.queue_depth"), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.tombstones"), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.total_scheduled"), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.peak_depth"), 3.0);
  sim.run();
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.events_processed"), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("kernel.cancelled_skips"), 1.0);
}

// ---------------------------------------------------------------------------
// Capture health.

TEST(CheckCapture, FlagsDroppedEventsAndPassesCleanCaptures) {
  obs::RingBufferSink sink(2);
  obs::TraceEvent ev;
  sink.accept(ev);
  sink.accept(ev);
  obs::MetricsRegistry clean;
  sink.register_metrics(clean);
  EXPECT_TRUE(check_capture(parse_json(clean.to_json())).ok());

  sink.accept(ev);  // wraps: oldest dropped
  EXPECT_EQ(sink.dropped(), 1u);
  obs::MetricsRegistry dirty;
  sink.register_metrics(dirty);
  const CheckReport report = check_capture(parse_json(dirty.to_json()));
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].find("dropped 1"), std::string::npos);
  EXPECT_NE(report.issues[0].find("suffix"), std::string::npos);

  // No sink registered => vacuous pass.
  obs::MetricsRegistry none;
  EXPECT_TRUE(check_capture(parse_json(none.to_json())).ok());
}

TEST(InspectCheck, SurfacesCaptureDropsViaMetrics) {
  obs::RingBufferSink sink(1);
  obs::TraceEvent ev;
  ev.name = "send";
  sink.accept(ev);
  sink.accept(ev);
  obs::MetricsRegistry registry;
  sink.register_metrics(registry);
  const std::string trace_path = write_file("trace.jsonl", "");
  const std::string metrics_path = write_file("metrics.json",
                                              registry.to_json() + "\n");
  std::ostringstream out, err;
  const int rc = run_inspect(
      {"check", trace_path, "--metrics", metrics_path}, out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.str().find("suffix"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Percentiles.

TEST(Histogram, P90BetweenP50AndP99) {
  obs::Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.p90(), 90.0, 1.5);
  EXPECT_LT(h.p50(), h.p90());
  EXPECT_LT(h.p90(), h.p99());
}

TEST(Histogram, SnapshotJsonCarriesP90) {
  obs::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i));
  obs::MetricsRegistry registry;
  registry.add_histogram("lat", &h);
  const JsonValue doc = parse_json(registry.to_json());
  const JsonValue* lat = doc.find("lat");
  ASSERT_NE(lat, nullptr);
  ASSERT_NE(lat->find("p90"), nullptr);
  EXPECT_NEAR(lat->find("p90")->number(), 9.0, 1.0);
}

// ---------------------------------------------------------------------------
// Wall-clock field class in bench-compare.

TEST(BenchCompare, WallClockFieldsSkippedByDefault) {
  const std::string base =
      "{\"bench\":\"kernel\",\"depth\":256,\"events_per_sec\":1e6,"
      "\"mean_event_ns\":1000.0}\n";
  const std::string cur =
      "{\"bench\":\"kernel\",\"depth\":256,\"events_per_sec\":1e3,"
      "\"mean_event_ns\":9000.0}\n";
  const CompareReport r = compare_bench(base, cur, 0.10);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.fields_compared, 1u);  // only "depth"
}

TEST(BenchCompare, WallClockToleranceIsOneSided) {
  const std::string base =
      "{\"bench\":\"kernel\",\"events_per_sec\":1000.0,"
      "\"mean_event_ns\":1000.0}\n";
  CompareOptions opts;
  opts.wallclock_tolerance = 0.50;
  // Much faster: higher rate, lower ns. Never a regression.
  const CompareReport faster = compare_bench(
      base,
      "{\"bench\":\"kernel\",\"events_per_sec\":9000.0,"
      "\"mean_event_ns\":100.0}\n",
      opts);
  EXPECT_TRUE(faster.ok());
  // Much slower: rate collapsed, ns ballooned. Both flagged.
  const CompareReport slower = compare_bench(
      base,
      "{\"bench\":\"kernel\",\"events_per_sec\":100.0,"
      "\"mean_event_ns\":9000.0}\n",
      opts);
  EXPECT_EQ(slower.regressions.size(), 2u);
}

TEST(BenchCompare, BenchFilterRestrictsComparison) {
  const std::string base =
      "{\"bench\":\"kernel\",\"depth\":256}\n"
      "{\"bench\":\"other\",\"x\":1.0}\n";
  const std::string cur = "{\"bench\":\"kernel\",\"depth\":256}\n";
  CompareOptions opts;
  opts.bench_filter = "kernel";
  // 'other' missing from current would be a mismatch without the filter.
  EXPECT_TRUE(compare_bench(base, cur, opts).ok());
  opts.bench_filter = "absent";
  EXPECT_FALSE(compare_bench(base, cur, opts).ok());
}

// ---------------------------------------------------------------------------
// Chrome host-time track.

TEST(ChromeExport, HostTrackRendersSpanLog) {
  obs::SimProfiler& prof = obs::profiler();
  prof.set_span_log_capacity(8);
  prof.arm();
  {
    obs::ProfSpan span(obs::ProfCat::kDispatch);
    spin_at_least_ns(1'000);
  }
  prof.disarm();
  std::ostringstream with_track;
  obs::write_chrome_trace({}, with_track, &prof);
  EXPECT_NE(with_track.str().find("host (profiler)"), std::string::npos);
  EXPECT_NE(with_track.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(with_track.str().find("\"dispatch\""), std::string::npos);

  std::ostringstream without_track;
  obs::write_chrome_trace({}, without_track);
  EXPECT_EQ(without_track.str().find("host (profiler)"), std::string::npos);
  prof.set_span_log_capacity(0);
}

// ---------------------------------------------------------------------------
// wsn-inspect perf.

constexpr const char* kPerfDoc =
    "{\"prof\":{\"host_ns\":2000000,\"sim_time\":4.0,\"sim_events\":1000,"
    "\"events_per_sec\":500000.0,"
    "\"spans\":{"
    "\"dispatch\":{\"count\":1000,\"total_ns\":1500000,\"self_ns\":900000,"
    "\"min_ns\":100,\"max_ns\":5000},"
    "\"link_tx\":{\"count\":200,\"total_ns\":600000,\"self_ns\":600000,"
    "\"min_ns\":500,\"max_ns\":9000}},"
    "\"alloc\":{\"count\":42,\"bytes\":4096},"
    "\"phases\":[{\"name\":\"setup\",\"start_ns\":0,\"end_ns\":1000000,"
    "\"alloc_count\":40,\"alloc_bytes\":4000},"
    "{\"name\":\"run\",\"start_ns\":1000000,\"end_ns\":2000000,"
    "\"alloc_count\":2,\"alloc_bytes\":96}]}}";

TEST(InspectPerf, RendersTopSelfTimeAndRatios) {
  const std::string path = write_file("perf.json", kPerfDoc);
  std::ostringstream out, err;
  ASSERT_EQ(run_inspect({"perf", path}, out, err), 0) << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("events/sec"), std::string::npos);
  EXPECT_NE(text.find("500000"), std::string::npos);
  // host/sim: 2 ms over 4 sim units.
  EXPECT_NE(text.find("0.5000"), std::string::npos);
  // dispatch leads the self-time table (0.9 ms self vs 0.6 ms).
  const auto dispatch_at = text.find("dispatch");
  const auto link_at = text.find("link_tx");
  ASSERT_NE(dispatch_at, std::string::npos);
  ASSERT_NE(link_at, std::string::npos);
  EXPECT_LT(dispatch_at, link_at);
  // 1.5e6 of 2e6 ns accounted.
  EXPECT_NE(text.find("75.0% of host time"), std::string::npos);
  EXPECT_NE(text.find("allocations   42 (4096 bytes)"), std::string::npos);
  // Phases ranked by allocation: setup before run.
  EXPECT_LT(text.find("setup"), text.find("run"));
}

TEST(InspectPerf, TopLimitsTableAndJsonEmitsRow) {
  const std::string path = write_file("perf.json", kPerfDoc);
  const std::string json_path = unique_path("perf_row.json");
  std::ostringstream out, err;
  ASSERT_EQ(
      run_inspect({"perf", path, "--top", "1", "--json", json_path}, out, err),
      0)
      << err.str();
  // With --top 1 only the heaviest category is tabulated.
  EXPECT_EQ(out.str().find("link_tx"), std::string::npos);
  std::ifstream in(json_path);
  std::string row;
  std::getline(in, row);
  const JsonValue parsed = parse_json(row);
  EXPECT_EQ(parsed.find("bench")->string(), "perf");
  EXPECT_DOUBLE_EQ(parsed.find("host_ms")->number(), 2.0);
  EXPECT_DOUBLE_EQ(parsed.find("dispatch_self_ns")->number(), 900000.0);
  EXPECT_DOUBLE_EQ(parsed.find("events_per_sec")->number(), 500000.0);
}

TEST(InspectPerf, MalformedInputIsUsageError) {
  std::ostringstream out, err;
  EXPECT_EQ(run_inspect({"perf", write_file("bad.json", "{nope")}, out, err),
            2);
  EXPECT_NE(err.str().find("perf"), std::string::npos);

  // Valid JSON but not a perf snapshot.
  EXPECT_EQ(run_inspect({"perf", write_file("np.json", "{\"x\":1}")}, out,
                        err),
            2);
  EXPECT_EQ(run_inspect({"perf", "/nonexistent/p.json"}, out, err), 2);
}

}  // namespace
