// TraceReader: pull-based iteration over a capture, one event at a time.
//
// Accepts every shape the pipeline produces behind one interface:
//   * a StreamingFileSink directory (trace.wtr.NNN or trace.jsonl.NNN
//     segments, iterated in index order),
//   * a single wtr segment file (sniffed by magic), or
//   * a plain JSONL file (write_jsonl / quickstart --trace output).
//
// Memory is bounded by one record regardless of capture size — this is
// what lets wsn-inspect analyze multi-GB captures with flat RSS. A
// truncated tail (crash, unflushed buffer) is reported as a structured
// finding via findings() after iteration, not an exception; exceptions are
// reserved for structural errors (missing path, bad magic, unsupported
// version, malformed JSONL in the middle of a file, and a JSONL word outside
// the trace vocabulary anywhere). In wtr a word outside the vocabulary
// makes a corrupt segment.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/wtr.h"

namespace wsn::obs {

class TraceReader {
 public:
  /// Per-segment (or per-file) accounting, complete once next() has
  /// returned false. `complete` is false for a truncated/corrupt tail.
  struct SegmentSummary {
    std::string path;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    bool complete = true;
  };

  /// Throws std::runtime_error if `path` does not exist, holds no trace
  /// segments, mixes formats, or fails wtr header validation.
  explicit TraceReader(const std::string& path);

  /// Fills `ev` with the next event; false once the capture is exhausted.
  bool next(TraceEvent& ev);

  /// Truncation/corruption findings gathered so far (all of them once
  /// next() has returned false). Each is prefixed with the segment path.
  const std::vector<std::string>& findings() const { return findings_; }

  std::uint64_t events_read() const { return events_read_; }
  const char* format() const { return wtr_ ? "wtr" : "jsonl"; }
  const std::vector<SegmentSummary>& segments() const { return summaries_; }

 private:
  bool next_wtr(TraceEvent& ev);
  bool next_jsonl(TraceEvent& ev);
  void open_jsonl(const std::string& path);
  void finish_segment();

  std::vector<std::string> paths_;
  std::size_t path_index_ = 0;  // next path to open
  bool wtr_ = false;

  std::unique_ptr<wtr::SegmentReader> seg_;  // open wtr segment

  std::ifstream in_;  // open jsonl file
  std::string line_;
  std::uint64_t lineno_ = 0;
  std::uint64_t file_events_ = 0;
  bool file_complete_ = true;

  std::vector<std::string> findings_;
  std::vector<SegmentSummary> summaries_;
  std::uint64_t events_read_ = 0;
};

}  // namespace wsn::obs
