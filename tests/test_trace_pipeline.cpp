// The scale-capture pipeline end to end: compact binary wtr encoding,
// streaming file sinks with rotation, the unified TraceReader (wtr segment
// dirs and JSONL behind one interface, truncated tails as findings), the
// bounded-memory incremental analyzers, and the wsn-inspect convert/info
// commands — including the byte-identity contract between streamed and
// in-memory captures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze/check.h"
#include "obs/analyze/cli.h"
#include "obs/analyze/flows.h"
#include "obs/analyze/incremental.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/stream_sink.h"
#include "obs/trace_reader.h"
#include "obs/wtr.h"
#include "tests/trace_helpers.h"

namespace {

using namespace wsn;
using testing_helpers::check_events;
using testing_helpers::nasty_events;
using testing_helpers::slurp;
namespace fs = std::filesystem;

/// Per-test scratch directory (ctest runs gtest cases as parallel
/// processes, so names must be test-unique).
std::string unique_path(const std::string& name) {
  return testing::TempDir() +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
         name;
}

struct ScopedDir {
  explicit ScopedDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
  }
  ~ScopedDir() { fs::remove_all(path); }
  std::string path;
};

/// n synthetic unit-latency flows (send + hop at t=k*spacing, deliver one
/// unit later) — the checker-clean shape the analyzers reconstruct without
/// issues.
std::vector<obs::TraceEvent> flow_events(std::size_t n, double spacing = 1.0) {
  std::vector<obs::TraceEvent> events;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) * spacing;
    const auto src = static_cast<std::int64_t>(k % 1024);
    const auto dst = static_cast<std::int64_t>((k * 7 + 3) % 1024);
    const std::uint64_t flow = k + 1;
    obs::TraceEvent send{t, src, obs::Category::kVirtual, 'i', "send", flow,
                         {{"dst", dst},
                          {"size", 1.0},
                          {"hops", std::uint64_t{1}}}};
    obs::TraceEvent hop{t,    src,  obs::Category::kVirtual,
                        'i',  "hop", flow,
                        {{"next", dst}, {"depart", t + 1.0}, {"wait", 0.0}}};
    obs::TraceEvent deliver{t + 1.0, dst, obs::Category::kVirtual,
                            'i',     "deliver", flow, {}};
    events.push_back(std::move(send));
    events.push_back(std::move(hop));
    events.push_back(std::move(deliver));
  }
  return events;
}

/// JSON has one number type, so the JSONL parser types integers by sign:
/// non-negative -> uint64, negative -> int64 (load_trace's long-standing
/// rule). A JSONL round trip therefore canonicalizes non-negative int64
/// attrs to uint64; only wtr preserves the exact kind (see
/// Wtr.RoundTripPreservesEveryEvent).
std::vector<obs::TraceEvent> jsonl_canonical(
    std::vector<obs::TraceEvent> events) {
  for (obs::TraceEvent& ev : events) {
    for (obs::Attr& attr : ev.attrs) {
      if (const auto* i = std::get_if<std::int64_t>(&attr.value);
          i != nullptr && *i >= 0) {
        attr.value = static_cast<std::uint64_t>(*i);
      }
    }
  }
  return events;
}

std::string write_capture(const std::string& dir,
                          const std::vector<obs::TraceEvent>& events,
                          obs::TraceFormat format,
                          std::uint64_t segment_bytes = 64ull << 20) {
  obs::StreamSinkConfig cfg;
  cfg.directory = dir;
  cfg.format = format;
  cfg.segment_bytes = segment_bytes;
  obs::StreamingFileSink sink(cfg);
  for (const obs::TraceEvent& ev : events) sink.accept(ev);
  EXPECT_TRUE(sink.close()) << sink.error();
  return dir;
}

std::vector<obs::TraceEvent> read_all(obs::TraceReader& reader) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent ev;
  while (reader.next(ev)) events.push_back(ev);
  return events;
}

// ---------------------------------------------------------------------------
// wtr encoding

TEST(Wtr, RoundTripPreservesEveryEvent) {
  ScopedDir dir(unique_path("wtr"));
  auto events = flow_events(50);
  for (obs::TraceEvent& ev : nasty_events()) events.push_back(std::move(ev));
  write_capture(dir.path, events, obs::TraceFormat::kWtr);

  obs::TraceReader reader(dir.path);
  EXPECT_STREQ(reader.format(), "wtr");
  const auto back = read_all(reader);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "event " << i;
  }
  EXPECT_TRUE(reader.findings().empty());
}

TEST(Wtr, PreservesNegativeZeroBits) {
  ScopedDir dir(unique_path("wtr"));
  obs::TraceEvent ev;
  ev.time = -0.0;
  ev.name = "hop";
  write_capture(dir.path, {ev}, obs::TraceFormat::kWtr);
  obs::TraceReader reader(dir.path);
  const auto back = read_all(reader);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(std::signbit(back[0].time));
}

TEST(Wtr, RotationSplitsSegmentsAndReaderStitchesThem) {
  ScopedDir dir(unique_path("wtr"));
  const auto events = flow_events(400);
  // Tiny segments: rotation lands mid-flow many times over.
  write_capture(dir.path, events, obs::TraceFormat::kWtr, 4096);

  std::size_t segments = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    (void)e;
    ++segments;
  }
  EXPECT_GT(segments, 3u);

  obs::TraceReader reader(dir.path);
  const auto back = read_all(reader);
  EXPECT_EQ(back, events);
  EXPECT_TRUE(reader.findings().empty());
  EXPECT_EQ(reader.segments().size(), segments);
}

TEST(Wtr, TruncatedTailIsAFindingNotAnError) {
  ScopedDir dir(unique_path("wtr"));
  const auto events = flow_events(200);
  write_capture(dir.path, events, obs::TraceFormat::kWtr, 4096);

  // Chop the final segment mid-record: everything before the cut must
  // still parse, the tail becomes a structured finding.
  std::string last;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    const std::string p = e.path().string();
    if (last.empty() || p > last) last = p;
  }
  const auto size = fs::file_size(last);
  ASSERT_GT(size, 16u);
  fs::resize_file(last, size - 9);

  obs::TraceReader reader(dir.path);
  const auto back = read_all(reader);
  EXPECT_LT(back.size(), events.size());
  EXPECT_GT(back.size(), 0u);
  ASSERT_FALSE(reader.findings().empty());
  EXPECT_NE(reader.findings()[0].find("truncated"), std::string::npos)
      << reader.findings()[0];
  // The prefix that did parse is intact.
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], events[i]);
}

TEST(Wtr, CorruptedByteTripsTheCrc) {
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, flow_events(100), obs::TraceFormat::kWtr);
  const std::string seg = dir.path + "/trace.wtr.000";
  std::string bytes = slurp(seg);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-stream
  std::ofstream(seg, std::ios::binary | std::ios::trunc) << bytes;

  obs::TraceReader reader(dir.path);
  read_all(reader);
  ASSERT_FALSE(reader.findings().empty());
}

TEST(Wtr, RecordLengthPastTheFileEndAllocatesNoBufferForIt) {
  // A 20-byte segment whose one record claims 2^28 - 1 bytes: a truncation,
  // read without sizing a buffer for the bytes that are not there.
  ScopedDir dir(unique_path("wtr"));
  fs::create_directories(dir.path);
  std::string bytes(obs::wtr::kMagic, sizeof obs::wtr::kMagic);
  bytes += std::string("\x01\x00\x00\x00", 4);  // version 1, reserved
  obs::wtr::append_varint(bytes, 0);             // segment index
  obs::wtr::append_varint(bytes, (1u << 28) - 1);
  bytes += "\x02 an event record, cut";
  std::ofstream(dir.path + "/trace.wtr.000", std::ios::binary) << bytes;

  const std::uint64_t before = obs::global_alloc_stats().bytes;
  obs::TraceReader reader(dir.path);
  EXPECT_TRUE(read_all(reader).empty());
  EXPECT_LT(obs::global_alloc_stats().bytes - before, 1u << 20);
  ASSERT_EQ(reader.findings().size(), 1u);
  EXPECT_NE(reader.findings()[0].find(
                "truncated after 0 event(s): unexpected end of file inside "
                "a record"),
            std::string::npos)
      << reader.findings()[0];
}

TEST(Wtr, EmptyCaptureReadsCleanly) {
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, {}, obs::TraceFormat::kWtr);
  obs::TraceReader reader(dir.path);
  EXPECT_TRUE(read_all(reader).empty());
  EXPECT_TRUE(reader.findings().empty());
  ASSERT_EQ(reader.segments().size(), 1u);
  EXPECT_TRUE(reader.segments()[0].complete);
}

// ---------------------------------------------------------------------------
// JSONL reading through the same interface

TEST(JsonlReader, RoundTripAndFormatTag) {
  const std::string path = unique_path("trace.jsonl");
  auto events = flow_events(20);
  for (obs::TraceEvent& ev : nasty_events()) events.push_back(std::move(ev));
  {
    std::ofstream out(path, std::ios::binary);
    obs::write_jsonl(events, out);
  }
  obs::TraceReader reader(path);
  EXPECT_STREQ(reader.format(), "jsonl");
  EXPECT_EQ(read_all(reader), jsonl_canonical(events));
  EXPECT_TRUE(reader.findings().empty());
  fs::remove(path);
}

TEST(JsonlReader, TruncatedFinalRecordIsAFinding) {
  const std::string path = unique_path("trace.jsonl");
  const auto events = flow_events(4);
  std::string text;
  for (const obs::TraceEvent& ev : events) {
    obs::append_jsonl(ev, text);
    text += '\n';
  }
  // Crash mid-write: the last record is cut in half, no newline.
  text.resize(text.size() - text.size() / 24 - 2);
  std::ofstream(path, std::ios::binary) << text;

  obs::TraceReader reader(path);
  const auto back = read_all(reader);
  EXPECT_LT(back.size(), events.size());
  ASSERT_FALSE(reader.findings().empty());
  EXPECT_NE(reader.findings()[0].find("truncated final record at line "),
            std::string::npos)
      << reader.findings()[0];
  fs::remove(path);
}

TEST(JsonlReader, MidFileGarbageThrowsWithLineNumber) {
  const std::string path = unique_path("trace.jsonl");
  std::string text;
  obs::append_jsonl(flow_events(1)[0], text);
  text += "\nthis is not json\n";
  obs::append_jsonl(flow_events(1)[0], text);
  text += '\n';
  std::ofstream(path, std::ios::binary) << text;

  obs::TraceReader reader(path);
  obs::TraceEvent ev;
  ASSERT_TRUE(reader.next(ev));
  try {
    reader.next(ev);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2:"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(JsonlReader, EmptyFileIsAnEmptyCapture) {
  const std::string path = unique_path("trace.jsonl");
  std::ofstream(path, std::ios::binary).flush();
  obs::TraceReader reader(path);
  EXPECT_TRUE(read_all(reader).empty());
  EXPECT_TRUE(reader.findings().empty());
  fs::remove(path);
}

TEST(TraceReader, MissingAndEmptyDirsThrow) {
  EXPECT_THROW(obs::TraceReader("/nonexistent/nowhere"), std::runtime_error);
  ScopedDir dir(unique_path("empty"));
  fs::create_directories(dir.path);
  EXPECT_THROW(obs::TraceReader(dir.path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Streaming sinks

TEST(StreamingFileSink, JsonlStreamIsByteIdenticalToBatchExport) {
  ScopedDir dir(unique_path("jsonl"));
  const auto events = flow_events(100);
  write_capture(dir.path, events, obs::TraceFormat::kJsonl);

  std::ostringstream batch;
  obs::write_jsonl(events, batch);
  EXPECT_EQ(slurp(dir.path + "/trace.jsonl.000"), batch.str());
}

TEST(StreamingFileSink, TeeFeedsRingAndFileTheSameEvents) {
  ScopedDir dir(unique_path("tee"));
  const auto events = flow_events(60);
  obs::RingBufferSink ring(1 << 12);
  {
    obs::StreamSinkConfig cfg;
    cfg.directory = dir.path;
    cfg.format = obs::TraceFormat::kJsonl;
    obs::StreamingFileSink stream(cfg);
    obs::TeeSink tee(ring, stream);
    for (const obs::TraceEvent& ev : events) tee.accept(ev);
    ASSERT_TRUE(stream.close());
  }
  std::ostringstream from_ring;
  obs::write_jsonl(ring.events(), from_ring);
  EXPECT_EQ(slurp(dir.path + "/trace.jsonl.000"), from_ring.str());
}

TEST(StreamingFileSink, ReportsGaugesAndCounts) {
  ScopedDir dir(unique_path("wtr"));
  obs::StreamSinkConfig cfg;
  cfg.directory = dir.path;
  obs::StreamingFileSink sink(cfg);
  obs::MetricsRegistry registry;
  sink.register_metrics(registry);
  for (const obs::TraceEvent& ev : flow_events(10)) sink.accept(ev);
  ASSERT_TRUE(sink.close());
  EXPECT_EQ(sink.events(), 30u);
  EXPECT_EQ(sink.segments(), 1u);
  std::ostringstream snap;
  registry.write_json(snap);
  EXPECT_NE(snap.str().find("trace.events"), std::string::npos);
}

TEST(StreamingFileSink, FailureIsStickyAndReported) {
  obs::StreamSinkConfig cfg;
  cfg.directory = "/proc/definitely/not/writable";
  obs::StreamingFileSink sink(cfg);
  for (const obs::TraceEvent& ev : flow_events(2)) sink.accept(ev);
  EXPECT_FALSE(sink.close());
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.error().empty());
}

// ---------------------------------------------------------------------------
// Incremental analysis: retirement changes memory, never results

TEST(Incremental, StreamingFlowsMatchBatchAcrossRotation) {
  ScopedDir dir(unique_path("wtr"));
  // Flows 200 time units apart: at the 1024-unit retire lag about five are
  // live at once, so the collector retires them all through the stream.
  const auto events = flow_events(300, 200.0);
  write_capture(dir.path, events, obs::TraceFormat::kWtr, 4096);

  const std::vector<obs::analyze::Flow> batch =
      testing_helpers::collect_flows(events);

  std::vector<obs::analyze::Flow> streamed;
  obs::analyze::FlowCollector collector(
      [&streamed](obs::analyze::Flow& f) { streamed.push_back(std::move(f)); });
  obs::TraceReader reader(dir.path);
  obs::TraceEvent ev;
  std::size_t max_live = 0;
  while (reader.next(ev)) {
    collector.feed(ev);
    max_live = std::max(max_live, collector.live());
  }
  collector.finish();

  EXPECT_EQ(streamed, batch);
  EXPECT_EQ(collector.flows_seen(), 300u);
  ASSERT_EQ(streamed.size(), 300u);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].id, i + 1);  // creation order
    EXPECT_TRUE(streamed[i].delivered);
    EXPECT_DOUBLE_EQ(streamed[i].latency(), 1.0);
  }
  // Bounded memory: the live window tracks the retire lag, not the trace.
  EXPECT_LT(max_live, 16u);
}

/// flow_events(50, spacing), then an orphan delivery, a send that never
/// delivers, one clean collective and one that never completes.
std::vector<obs::TraceEvent> anomalous_events(double spacing) {
  auto events = flow_events(50, spacing);
  const double t = 900.0 * spacing;
  events.push_back({t, 3, obs::Category::kVirtual, 'i', "deliver", 9001, {}});
  events.push_back({t + spacing, 4, obs::Category::kVirtual, 'i', "send",
                    9002,
                    {{"dst", std::int64_t{5}},
                     {"size", 1.0},
                     {"hops", std::uint64_t{1}}}});
  events.push_back({t + 2 * spacing, 0, obs::Category::kCollective, 'B',
                    "reduce", 9100, {}});
  events.push_back({t + 3 * spacing, 0, obs::Category::kCollective, 'E',
                    "reduce", 9100, {}});
  events.push_back({t + 4 * spacing, 0, obs::Category::kCollective, 'B',
                    "barrier", 9101, {}});
  return events;
}

TEST(Incremental, StreamingCheckMatchesBatchVerdict) {
  // Squeezed into 904 time units, nothing retires before finish(); spread
  // 100x wider, flows and ARQ state retire mid-stream. The verdict must not
  // depend on which.
  const obs::analyze::CheckReport batch = check_events(anomalous_events(1.0));
  const obs::analyze::CheckReport streamed =
      check_events(anomalous_events(100.0));

  EXPECT_EQ(streamed.flows_checked, batch.flows_checked);
  EXPECT_EQ(streamed.collectives_checked, batch.collectives_checked);
  auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(streamed.issues), sorted(batch.issues));
  EXPECT_EQ(batch.issues.size(), 3u);
  EXPECT_EQ(batch.flows_checked, 52u);
}

TEST(Incremental, StreamingMembershipMatchesBatchFindings) {
  // A membership stream with one clean adoption, one adoption whose
  // vacated cell is never re-bound (dark cell), and repair churn after the
  // reconciliation deadline. Checked in memory and streamed back from a
  // JSONL capture, the findings must be byte-identical.
  using obs::Category;
  std::vector<obs::TraceEvent> events;
  events.push_back({10.0, 3, Category::kReliability, 'i', "fd.defect", 0,
                    {{"bound", 50.0}}});
  events.push_back({20.0, 7, Category::kReliability, 'i', "fd.adopt", 0,
                    {{"bound", 50.0},
                     {"row", 1.0},
                     {"col", 2.0},
                     {"from_row", 0.0},
                     {"from_col", 3.0},
                     {"last", 1.0}}});
  events.push_back({25.0, 11, Category::kReliability, 'i', "fd.adopt_accept",
                    0,
                    {{"node", 7.0}, {"row", 1.0}, {"col", 2.0}}});
  events.push_back({30.0, 9, Category::kReliability, 'i', "fd.adopt", 0,
                    {{"bound", 50.0},
                     {"row", 2.0},
                     {"col", 2.0},
                     {"from_row", 3.0},
                     {"from_col", 3.0},
                     {"last", 0.0}}});
  events.push_back({31.0, 12, Category::kReliability, 'i', "fd.adopt_accept",
                    0,
                    {{"node", 9.0}, {"row", 2.0}, {"col", 2.0}}});
  // Churn 130s after the last disturbance (t=30) outlives the 50s bound.
  events.push_back({160.0, 5, Category::kReliability, 'i', "fd.roster_heal",
                    0, {}});

  const obs::analyze::CheckReport batch = check_events(events);
  ASSERT_EQ(batch.issues.size(), 2u);  // dark cell + late churn

  const std::string path = unique_path("trace.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    obs::write_jsonl(events, out);
  }
  obs::analyze::StreamingChecker checker;
  obs::TraceReader reader(path);
  obs::TraceEvent ev;
  while (reader.next(ev)) checker.feed(ev);
  const obs::analyze::CheckReport streamed = checker.finish();
  EXPECT_EQ(streamed.issues, batch.issues);
  fs::remove(path);
}

TEST(Incremental, ArqExchangeLivesForTheRetireLag) {
  auto rel = [](double t, obs::EventName name) {
    return obs::TraceEvent{t,
                           3,
                           obs::Category::kReliability,
                           'i',
                           name,
                           0,
                           {{"src", std::uint64_t{3}},
                            {"dst", std::uint64_t{4}},
                            {"seq", std::uint64_t{1}}}};
  };
  // Any later event advances the watermark that retires ARQ state.
  auto tick = [](double t) {
    return obs::TraceEvent{t, 0, obs::Category::kLink, 'i', "broadcast", 0,
                           {}};
  };
  constexpr double kLag = obs::analyze::kRetireLag;
  // An ack just inside the lag still finds its send...
  EXPECT_TRUE(check_events({rel(1.0, "rel.send"), tick(kLag),
                            rel(kLag, "rel.ack")})
                  .ok());
  // ...one past it does not: the exchange retired.
  const obs::analyze::CheckReport late = check_events(
      {rel(1.0, "rel.send"), tick(kLag + 2.0), rel(kLag + 2.0, "rel.ack")});
  ASSERT_EQ(late.issues.size(), 1u);
  EXPECT_NE(late.issues[0].find("no matching rel.send"), std::string::npos)
      << late.issues[0];
}

// ---------------------------------------------------------------------------
// wsn-inspect: convert, info, streaming analyses, error surfaces

class TracePipelineCli : public ::testing::Test {
 protected:
  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return obs::analyze::run_inspect(args, out_, err_);
  }
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(TracePipelineCli, ConvertWtrToJsonlIsByteIdenticalToDirectExport) {
  ScopedDir dir(unique_path("wtr"));
  auto events = flow_events(120);
  for (obs::TraceEvent& ev : nasty_events()) events.push_back(std::move(ev));
  write_capture(dir.path, events, obs::TraceFormat::kWtr, 8192);

  std::ostringstream direct;
  obs::write_jsonl(events, direct);

  const std::string converted = unique_path("converted.jsonl");
  ASSERT_EQ(run({"convert", dir.path, "--out", converted}), 0) << err_.str();
  EXPECT_EQ(slurp(converted), direct.str());

  // And back: jsonl -> wtr -> jsonl is a fixed point.
  ScopedDir dir2(unique_path("wtr2"));
  ASSERT_EQ(run({"convert", converted, "--out", dir2.path, "--format", "wtr"}),
            0)
      << err_.str();
  const std::string again = unique_path("again.jsonl");
  ASSERT_EQ(run({"convert", dir2.path, "--out", again}), 0) << err_.str();
  EXPECT_EQ(slurp(again), direct.str());
  fs::remove(converted);
  fs::remove(again);
}

TEST_F(TracePipelineCli, InfoSummarizesSegments) {
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, flow_events(100), obs::TraceFormat::kWtr, 4096);
  ASSERT_EQ(run({"info", dir.path}), 0) << err_.str();
  EXPECT_NE(out_.str().find("format    : wtr"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("events    : 300"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("trace.wtr.000"), std::string::npos);
}

TEST_F(TracePipelineCli, CheckRunsStreamingOverSegmentsAndPasses) {
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, flow_events(200), obs::TraceFormat::kWtr, 4096);
  ASSERT_EQ(run({"check", dir.path}), 0) << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("all invariants hold"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("200 flows"), std::string::npos) << out_.str();
}

TEST_F(TracePipelineCli, CheckFlagsTruncatedCaptureAsFinding) {
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, flow_events(200), obs::TraceFormat::kWtr, 4096);
  std::string last;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    const std::string p = e.path().string();
    if (last.empty() || p > last) last = p;
  }
  fs::resize_file(last, fs::file_size(last) - 7);
  EXPECT_EQ(run({"check", dir.path}), 1);
  EXPECT_NE(out_.str().find("truncated"), std::string::npos) << out_.str();
}

TEST_F(TracePipelineCli, WrongWtrVersionIsAUsageError) {
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, flow_events(5), obs::TraceFormat::kWtr);
  const std::string seg = dir.path + "/trace.wtr.000";
  std::string bytes = slurp(seg);
  bytes[4] = 2;  // u16le version field right after the magic
  std::ofstream(seg, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_EQ(run({"info", dir.path}), 2);
  EXPECT_NE(err_.str().find("unsupported wtr version 2"), std::string::npos)
      << err_.str();
}

TEST_F(TracePipelineCli, LoadErrorsCarryLineNumbers) {
  const std::string path = unique_path("bad.jsonl");
  std::string text;
  obs::append_jsonl(flow_events(1)[0], text);
  text += "\n{\"oops\": broken}\n";
  obs::append_jsonl(flow_events(1)[0], text);
  text += '\n';
  std::ofstream(path, std::ios::binary) << text;
  EXPECT_EQ(run({"flows", path}), 2);
  EXPECT_NE(err_.str().find("line 2:"), std::string::npos) << err_.str();
  fs::remove(path);
}

TEST_F(TracePipelineCli, ForeignFinalLineIsAnErrorNotATruncation) {
  // A word outside the vocabulary cannot come from a capture cut short, so
  // even on the last line it fails the read with its line number.
  const std::string path = unique_path("foreign.jsonl");
  std::string first;
  obs::append_jsonl(flow_events(1)[0], first);
  const std::string head =
      "{\"t\":2.0,\"node\":0,\"cat\":\"vnet\",\"ph\":\"i\",";
  for (const std::string& second :
       {head + "\"name\":\"teleport\",\"flow\":0,\"args\":{}}",
        head + "\"name\":\"send\",\"flow\":0,\"args\":{\"warp\":1}}",
        head + "\"name\":\"drop\",\"flow\":0,\"args\":{\"why\":\"bored\"}}"}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << first << '\n' << second << '\n';
    EXPECT_EQ(run({"check", path}), 2) << out_.str();
    EXPECT_NE(err_.str().find("line 2: unknown"), std::string::npos)
        << err_.str();
  }
  fs::remove(path);
}

TEST_F(TracePipelineCli, NonIntegerIdsAreFindingsNotExchanges) {
  // A negative src and one past 2^64 name no ARQ exchange. Each is a
  // finding of its own, and neither pairs with anything.
  const std::string path = unique_path("ids.jsonl");
  const std::string head = "{\"cat\":\"rel\",\"ph\":\"i\",\"flow\":0,";
  std::ofstream(path, std::ios::binary)
      << head << "\"t\":1.0,\"node\":0,\"name\":\"rel.send\","
      << "\"args\":{\"src\":-1,\"dst\":2,\"seq\":1}}\n"
      << head << "\"t\":2.0,\"node\":2,\"name\":\"rel.ack\","
      << "\"args\":{\"src\":1e300,\"dst\":2,\"seq\":1}}\n";
  EXPECT_EQ(run({"check", path}), 1) << err_.str();
  const std::string out = out_.str();
  EXPECT_NE(out.find("rel.send at t=1.000000 (node 0): src=-1 is not an "
                     "integer id"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("rel.ack at t=2.000000 (node 2): "
                     "src=1.0000000000000001e+300 is not an integer id"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("no matching rel.send"), std::string::npos) << out;
  fs::remove(path);
}

TEST_F(TracePipelineCli, FlowsAndHistogramStreamTheSameNumbersAsBatch) {
  const auto events = flow_events(64);
  const std::string jsonl = unique_path("trace.jsonl");
  {
    std::ofstream out(jsonl, std::ios::binary);
    obs::write_jsonl(events, out);
  }
  ScopedDir dir(unique_path("wtr"));
  write_capture(dir.path, events, obs::TraceFormat::kWtr, 4096);

  ASSERT_EQ(run({"flows", jsonl, "--limit", "5"}), 0);
  const std::string from_jsonl = out_.str();
  ASSERT_EQ(run({"flows", dir.path, "--limit", "5"}), 0);
  EXPECT_EQ(out_.str(), from_jsonl);
  EXPECT_NE(from_jsonl.find("5 of 64 flows"), std::string::npos)
      << from_jsonl;

  ASSERT_EQ(run({"histogram", jsonl}), 0);
  const std::string hist_jsonl = out_.str();
  ASSERT_EQ(run({"histogram", dir.path}), 0);
  EXPECT_EQ(out_.str(), hist_jsonl);
  fs::remove(jsonl);
}

}  // namespace
