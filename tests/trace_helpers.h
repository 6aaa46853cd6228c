// In-memory captures through the streaming analyzers, as wsn-inspect feeds
// them from disk and ChaosSoak feeds them live, plus the file and JSONL
// helpers and escape-heavy events the trace tests share.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/analyze/energy.h"
#include "obs/analyze/flows.h"
#include "obs/analyze/incremental.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace wsn::testing_helpers {

/// Every invariant over `events`, finished with `snapshot` (nullptr skips
/// the snapshot comparisons).
inline obs::analyze::CheckReport check_events(
    const std::vector<obs::TraceEvent>& events,
    const obs::analyze::JsonValue* snapshot = nullptr) {
  obs::analyze::StreamingChecker checker;
  for (const obs::TraceEvent& ev : events) checker.feed(ev);
  return checker.finish(snapshot);
}

/// Every flow in `events`, in creation order.
inline std::vector<obs::analyze::Flow> collect_flows(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<obs::analyze::Flow> flows;
  obs::analyze::FlowCollector collector(
      [&flows](obs::analyze::Flow& f) { flows.push_back(std::move(f)); });
  for (const obs::TraceEvent& ev : events) collector.feed(ev);
  collector.finish();
  return flows;
}

/// The radio energy `events` charge.
inline obs::analyze::EnergyMap energy_of(
    const std::vector<obs::TraceEvent>& events) {
  obs::analyze::EnergyMap map;
  for (const obs::TraceEvent& ev : events) {
    obs::analyze::accumulate_energy(map, ev);
  }
  return map;
}

/// The whole file at `path` ("" if it cannot be read).
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every line of a JSONL text, parsed with its line number; blank lines
/// are skipped but counted.
inline std::vector<obs::TraceEvent> parse_jsonl_text(std::string_view text) {
  std::vector<obs::TraceEvent> events;
  std::size_t lineno = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++lineno;
    if (!line.empty()) events.push_back(obs::parse_jsonl_line(line, lineno));
  }
  return events;
}

/// Events whose JSONL needs every escape and extreme number the writer
/// produces: phases that are a quote, a control byte and a backslash,
/// int64/uint64 limits, denormals and negative zero, plus a coded value.
inline std::vector<obs::TraceEvent> nasty_events() {
  using I = std::numeric_limits<std::int64_t>;
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent a{0.0, -1, obs::Category::kApp, '"', "reduce", 0,
                    {{"row", std::int64_t{I::min()}},
                     {"col", std::int64_t{I::max()}},
                     {"seq", std::numeric_limits<std::uint64_t>::max()},
                     {"wait", 5e-324},
                     {"why", obs::AttrCode("no_route")}}};
  obs::TraceEvent b{-0.0, I::min(), obs::Category::kReliability, '\x01',
                    "barrier", std::uint64_t{1} << 63,
                    {{"depart", -0.0}, {"value", 1.0 / 3.0}}};
  obs::TraceEvent c{1e300, 42, obs::Category::kLink, '\\', "deliver", 7, {}};
  events.push_back(std::move(a));
  events.push_back(std::move(b));
  events.push_back(std::move(c));
  return events;
}

}  // namespace wsn::testing_helpers
