// Seeded mutation fuzzing of every untrusted input the tree reads: fault
// plans (the five canned campaigns), JSONL traces and metrics snapshots,
// and wtr trace segments. Each JSON mutant must either parse or fail with a
// std::runtime_error that names a line ("fault plan line L", "json: line
// L"), and what parses must round-trip through its writer. Each wtr mutant
// must read to a clean end, end with a truncated or corrupt finding, or
// throw a std::runtime_error that names its file. Never another exception,
// a crash, a hang or a sanitizer report. No fuzzing library: a fixed-seed
// generator drives byte flips, inserts drawn from a JSON alphabet (JSON
// only), deletions, duplicated spans and truncation, so every run checks
// the same mutants.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/virtual_network.h"
#include "obs/analyze/incremental.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"
#include "obs/wtr.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "tests/trace_helpers.h"

namespace {

using namespace wsn;

constexpr std::uint64_t kSeed = 20261017;
constexpr std::size_t kMutantsPerSeed = 500;

/// Byte strings a mutation inserts: JSON's structural characters, escape
/// and number fragments, literals, whitespace and raw control/high bytes.
const char* const kAlphabet[] = {
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83d", "\\u00zz",
    "-", "+", ".", "e", "E", "0", "1", "9", "18446744073709551616", "1e999",
    " ", "\n", "\t", "true", "false", "null", "\x01", "\xff"};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// One to three mutations of `s`; `binary` leaves out the JSON inserts.
  std::string mutate(std::string s, bool binary = false) {
    for (std::size_t ops = 1 + pick(3); ops > 0; --ops) {
      std::size_t op = pick(binary ? 4 : 5);
      if (binary && op >= 1) ++op;  // skip the insert
      switch (op) {
        case 0:  // flip one bit
          if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 << pick(8));
          break;
        case 1:  // insert a token
          s.insert(pick(s.size() + 1),
                   kAlphabet[pick(std::size(kAlphabet))]);
          break;
        case 2:  // delete a short span
          if (!s.empty()) s.erase(pick(s.size()), 1 + pick(8));
          break;
        case 3: {  // duplicate a span elsewhere
          if (s.empty()) break;
          const std::size_t at = pick(s.size());
          const std::string span = s.substr(at, 1 + pick(16));
          s.insert(pick(s.size() + 1), span);
          break;
        }
        default:  // truncate
          s.resize(pick(s.size() + 1));
          break;
      }
    }
    return s;
  }

 private:
  std::size_t pick(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::mt19937_64 rng_;
};

/// True when `msg` starts with `prefix` and a line number.
bool names_line(std::string_view msg, std::string_view prefix) {
  return msg.substr(0, prefix.size()) == prefix &&
         msg.size() > prefix.size() && msg[prefix.size()] >= '1' &&
         msg[prefix.size()] <= '9';
}

/// Parses a plan mutant; returns whether it parsed.
bool fuzz_plan(const std::string& text) {
  sim::FaultPlan plan;
  try {
    plan = sim::FaultPlan::from_json(text);
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(names_line(e.what(), "fault plan line "))
        << e.what() << "\n" << text;
    return false;
  }
  const std::string once = plan.to_json();
  EXPECT_EQ(sim::FaultPlan::from_json(once).to_json(), once) << text;
  return true;
}

/// Parses every line of a JSONL mutant; returns how many parsed.
std::size_t fuzz_jsonl(std::string_view text) {
  std::size_t parsed = 0;
  std::size_t lineno = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++lineno;
    if (line.empty()) continue;
    obs::TraceEvent ev;
    try {
      ev = obs::parse_jsonl_line(line, lineno);
    } catch (const std::runtime_error& e) {
      const std::string want = "json: line " + std::to_string(lineno) + ": ";
      EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u)
          << e.what() << "\n" << line;
      continue;
    }
    ++parsed;
    std::string once;
    obs::append_jsonl(ev, once);
    std::string twice;
    obs::append_jsonl(obs::parse_jsonl_line(once), twice);
    EXPECT_EQ(twice, once) << line;
  }
  return parsed;
}

/// Parses a snapshot mutant and runs the checks wsn-inspect check
/// --metrics runs on it; returns whether it parsed.
bool fuzz_snapshot(const std::string& text) {
  try {
    const obs::analyze::JsonValue snapshot = obs::analyze::parse_json(text);
    obs::analyze::StreamingChecker checker;
    (void)checker.finish(&snapshot);
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(names_line(e.what(), "json: line "))
        << e.what() << "\n" << text;
    return false;
  }
  return true;
}

/// A metrics snapshot with every section kind the checker reads: energy
/// ledgers, a histogram's arrays and the ring sink's capture gauges.
std::string snapshot_seed() {
  obs::RingBufferSink sink(64);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model());
  {
    obs::ScopedTrace trace(sink);
    for (const auto& c : vnet.grid().all_coords()) {
      vnet.send(c, {0, 0}, std::monostate{}, 1.0);
    }
    sim.run();
  }
  obs::Histogram latency(0.0, 8.0, 4);
  for (double v : {0.5, 2.5, 7.5}) latency.add(v);
  obs::MetricsRegistry registry;
  vnet.register_metrics(registry);
  sink.register_metrics(registry);
  registry.add_histogram("app.latency", &latency);
  return registry.to_json();
}

/// A seeded capture as one wtr segment: every cell of a 4x4 virtual
/// network sends to the origin under contention, then nasty_events() adds
/// a coded value and the numeric extremes.
std::string wtr_seed() {
  obs::RingBufferSink sink(1 << 12);
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(4),
                            core::uniform_cost_model(),
                            core::LeaderPlacement::kNorthWest,
                            core::Congestion::kNodeSerialized);
  {
    obs::ScopedTrace trace(sink);
    for (const auto& c : vnet.grid().all_coords()) {
      vnet.send(c, {0, 0}, std::monostate{}, 1.0);
    }
    sim.run();
  }
  std::vector<obs::TraceEvent> events = sink.events();
  for (obs::TraceEvent& ev : testing_helpers::nasty_events()) {
    events.push_back(ev);
  }
  obs::wtr::SegmentEncoder encoder;
  std::string out;
  encoder.begin_segment(out, 0);
  for (const obs::TraceEvent& ev : events) encoder.append_event(ev, out);
  obs::wtr::Crc32 crc;
  crc.update(out);
  obs::wtr::SegmentEncoder::append_footer(out, events.size(), crc.value());
  return out;
}

/// How a wtr read ended.
enum class WtrEnd { kClean, kFinding, kThrew };

/// Reads `bytes` as the one segment of the capture directory `dir`; checks
/// that any finding or error names the segment. `last` receives the last
/// finding or error text.
WtrEnd fuzz_wtr(const std::string& bytes, const std::string& dir,
                std::string& last) {
  const std::string path = dir + "/trace.wtr.000";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  try {
    obs::TraceReader reader(dir);
    obs::TraceEvent ev;
    while (reader.next(ev)) {
    }
    if (reader.findings().empty()) return WtrEnd::kClean;
    for (const std::string& f : reader.findings()) {
      EXPECT_TRUE(f.rfind(path + ": truncated after ", 0) == 0 ||
                  f.rfind(path + ": corrupt after ", 0) == 0)
          << f;
      last = f;
    }
    return WtrEnd::kFinding;
  } catch (const std::runtime_error& e) {
    last = e.what();
    EXPECT_NE(last.find(path), std::string::npos) << last;
    return WtrEnd::kThrew;
  }
}

TEST(JsonFuzz, CampaignPlansParseOrNameALine) {
  Mutator mutator(kSeed);
  for (const char* name : {"loss_burst", "region_outage", "depletion",
                           "corruption", "membership"}) {
    const std::string seed = testing_helpers::slurp(
        std::string(WSN_SOURCE_DIR) + "/campaigns/" + name + ".json");
    ASSERT_FALSE(seed.empty()) << name;
    ASSERT_TRUE(fuzz_plan(seed)) << name;
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
      parsed += fuzz_plan(mutator.mutate(seed)) ? 1 : 0;
    }
    EXPECT_GT(parsed, 0u) << name;  // the round trip ran
  }
}

TEST(JsonFuzz, JsonlLinesParseOrNameTheirLine) {
  std::string seed;
  for (const obs::TraceEvent& ev : testing_helpers::nasty_events()) {
    obs::append_jsonl(ev, seed);
    seed += '\n';
  }
  ASSERT_EQ(fuzz_jsonl(seed), 3u);
  Mutator mutator(kSeed + 1);
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
    parsed += fuzz_jsonl(mutator.mutate(seed));
  }
  EXPECT_GT(parsed, 0u);
}

TEST(JsonFuzz, MetricsSnapshotsParseOrNameALine) {
  const std::string seed = snapshot_seed();
  ASSERT_TRUE(fuzz_snapshot(seed));
  Mutator mutator(kSeed + 2);
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
    parsed += fuzz_snapshot(mutator.mutate(seed)) ? 1 : 0;
  }
  EXPECT_GT(parsed, 0u);
}

TEST(JsonFuzz, WtrSegmentsReadCleanlyOrReportTheirEnd) {
  const std::string dir =
      testing::TempDir() + "JsonFuzz.WtrSegmentsReadCleanlyOrReportTheirEnd";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string seed = wtr_seed();
  std::string last;
  ASSERT_EQ(fuzz_wtr(seed, dir, last), WtrEnd::kClean) << last;

  Mutator mutator(kSeed + 3);
  std::size_t findings = 0;
  for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
    if (fuzz_wtr(mutator.mutate(seed, true), dir, last) == WtrEnd::kFinding) {
      ++findings;
    }
  }
  EXPECT_GT(findings, 0u);

  // One letter of an interned name, an interned key and an inline coded
  // value, changed to a word outside the vocabulary: the reader reaches
  // the word before the footer's CRC and reports it.
  for (const auto& [word, reason] :
       {std::pair<std::string, std::string>{"deliver", "unknown event name"},
        {"size", "unknown attribute key"},
        {"no_route", "unknown attribute value"}}) {
    std::string mutant = seed;
    const std::size_t at = mutant.find(word);
    ASSERT_NE(at, std::string::npos) << word;
    mutant[at + 1] = 'X';
    ASSERT_EQ(fuzz_wtr(mutant, dir, last), WtrEnd::kFinding) << word;
    EXPECT_NE(last.find(": corrupt after "), std::string::npos) << last;
    EXPECT_NE(last.find(reason), std::string::npos) << last;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
