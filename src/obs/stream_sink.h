// StreamingFileSink: capture straight to disk with bounded memory.
//
// The RingBufferSink keeps the most recent N events; at production scale
// (multi-GB captures, ROADMAP items 2-3) that either truncates the run or
// doesn't fit. This sink instead encodes each event into a reusable append
// buffer (JSONL via append_jsonl, or the compact wtr binary format) and
// flushes the buffer to a segment file when it passes 64 KiB — the
// steady-state accept path performs no per-event allocation. Segments
// rotate at a configurable byte size (`trace.wtr.000`, `.001`, ...); each
// wtr segment gets its own string table and a footer (event count + CRC),
// so a crash costs at most the unflushed tail of the last segment and
// wsn-inspect can report that truncation as a finding.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/wtr.h"

namespace wsn::obs {

enum class TraceFormat {
  kJsonl,  // one JSON object per line; grep/jq-able, ~3-4x larger
  kWtr,    // string-interned varint binary; see obs/wtr.h
};

struct StreamSinkConfig {
  std::string directory;                        // created if missing
  TraceFormat format = TraceFormat::kWtr;
  std::uint64_t segment_bytes = 64ull << 20;    // rotate past this size
  bool fsync_on_rotate = false;                 // durability at rotation
};

class StreamingFileSink final : public TraceSink {
 public:
  explicit StreamingFileSink(StreamSinkConfig config);
  ~StreamingFileSink() override;
  StreamingFileSink(const StreamingFileSink&) = delete;
  StreamingFileSink& operator=(const StreamingFileSink&) = delete;

  void accept(TraceEvent ev) override;

  /// Flushes the buffer, writes the wtr footer, and closes the current
  /// segment. Idempotent. Returns ok() — false means events were lost and
  /// error() says why.
  bool close();

  bool ok() const { return !failed_; }
  const std::string& error() const { return error_; }

  std::uint64_t events() const { return events_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  /// Segments started so far (>= 1 once the sink opened its first file).
  std::uint64_t segments() const { return segment_index_ + (opened_ ? 1 : 0); }
  std::uint64_t flushes() const { return flushes_; }
  const std::string& directory() const { return config_.directory; }

  /// Capture-health gauges mirroring RingBufferSink::register_metrics:
  /// "<prefix>.events", ".bytes_written", ".segments", ".flushes".
  void register_metrics(MetricsRegistry& registry,
                        const std::string& prefix = "trace") const;

  /// "trace.wtr.000"-style name for segment `index` in `format`.
  static std::string segment_name(TraceFormat format, std::uint64_t index);

 private:
  void open_segment();
  void flush_buffer();
  void rotate();
  void fail(const std::string& why);

  StreamSinkConfig config_;
  std::FILE* file_ = nullptr;
  std::string buf_;  // pending encoded bytes, reused forever
  wtr::SegmentEncoder encoder_;
  wtr::Crc32 crc_;             // covers flushed bytes of the open segment
  bool opened_ = false;
  bool closed_ = false;
  bool failed_ = false;
  std::string error_;
  std::uint64_t segment_index_ = 0;      // index of the open segment
  std::uint64_t segment_written_ = 0;    // bytes flushed to the open segment
  std::uint64_t events_in_segment_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace wsn::obs
