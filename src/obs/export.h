// Trace exporters and the JSONL reader.
//
// Two formats:
//   * JSONL — one self-describing JSON object per event, the grep/jq-able
//     archival format. parse_jsonl_line() reads a line back losslessly
//     (integer vs double attribute kinds survive the round trip), which is
//     what lets TraceReader and offline tools reconstruct message
//     provenance from a file. It decodes on the shared JSON lexer
//     (obs/analyze/json_reader.h), so its errors name their line, and it
//     rejects a name, key or string value outside the vocabulary.
//   * Chrome trace_event JSON — loadable in about://tracing or
//     https://ui.perfetto.dev. Simulation time is mapped 1 cost-model unit
//     = 1 ms (ts is microseconds), nodes become "threads" so per-node
//     timelines line up visually.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analyze/json_reader.h"
#include "obs/trace.h"

namespace wsn::obs {

class SimProfiler;

/// Appends one event as a single-line JSON object (no trailing newline).
/// The allocation-free capture path: with a warmed, reused `out` buffer the
/// steady state performs zero heap allocations per event
/// (bench_micro_kernels carries the canary).
void append_jsonl(const TraceEvent& ev, std::string& out);

/// Writes one JSON object per line (append_jsonl through a reused buffer).
void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out);

/// A JSONL line that names an event, attribute key or string value outside
/// its vocabulary (obs/trace.h). A capture cut short cannot produce one, so
/// TraceReader never takes it for a truncated tail.
class VocabularyError : public analyze::JsonError {
 public:
  using JsonError::JsonError;
};

/// Parses one JSONL line, line `lineno` of its file, into an event. Throws
/// analyze::JsonError ("json: line <lineno>: ...") on malformed input, and
/// VocabularyError ("json: line <lineno>: unknown event name: ...") on a
/// word outside the vocabulary.
TraceEvent parse_jsonl_line(std::string_view line, std::size_t lineno = 1);

/// Writes a Chrome trace_event file ({"traceEvents":[...]}).
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out);

/// Same, plus a host-time track: when `profiler` is non-null and carries a
/// span log (SimProfiler::set_span_log_capacity), its spans are appended as
/// 'X' complete events on pid 1 ("host (profiler)"), ts/dur in host
/// microseconds since arm(). The two tracks share one file, so Perfetto
/// shows simulated time (pid 0, 1 cost unit = 1 ms) and where the host
/// actually spent its wall clock (pid 1) side by side.
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out, const SimProfiler* profiler);

}  // namespace wsn::obs
