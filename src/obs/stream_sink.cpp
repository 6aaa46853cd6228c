#include "obs/stream_sink.h"

#include <unistd.h>

#include <cinttypes>
#include <filesystem>
#include <utility>

#include "obs/export.h"
#include "obs/profiler.h"

namespace wsn::obs {

namespace {

/// The encode buffer is written out once it holds this many bytes.
constexpr std::size_t kFlushBytes = 1u << 16;

}  // namespace

std::string StreamingFileSink::segment_name(TraceFormat format,
                                            std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "trace.%s.%03" PRIu64,
                format == TraceFormat::kWtr ? "wtr" : "jsonl", index);
  return buf;
}

StreamingFileSink::StreamingFileSink(StreamSinkConfig config)
    : config_(std::move(config)) {
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) {
    fail("cannot create " + config_.directory + ": " + ec.message());
    return;
  }
  buf_.reserve(kFlushBytes * 2);
  open_segment();
}

StreamingFileSink::~StreamingFileSink() { close(); }

void StreamingFileSink::fail(const std::string& why) {
  if (failed_) return;  // keep the first, causal error
  failed_ = true;
  error_ = why;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void StreamingFileSink::open_segment() {
  const std::string path = config_.directory + "/" +
                           segment_name(config_.format, segment_index_);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    fail("cannot open " + path + " for writing");
    return;
  }
  opened_ = true;
  if (config_.format == TraceFormat::kWtr) {
    encoder_.begin_segment(buf_, segment_index_);
  }
}

void StreamingFileSink::flush_buffer() {
  if (buf_.empty() || failed_) return;
  const std::size_t n = std::fwrite(buf_.data(), 1, buf_.size(), file_);
  if (n != buf_.size()) {
    fail("short write to segment " +
         segment_name(config_.format, segment_index_) + " in " +
         config_.directory);
    return;
  }
  if (config_.format == TraceFormat::kWtr) crc_.update(buf_);
  bytes_written_ += n;
  segment_written_ += n;
  ++flushes_;
  buf_.clear();
}

void StreamingFileSink::rotate() {
  flush_buffer();
  if (failed_) return;
  if (config_.format == TraceFormat::kWtr) {
    // The footer sits outside the CRC it stores.
    std::string footer;
    wtr::SegmentEncoder::append_footer(footer, events_in_segment_,
                                       crc_.value());
    if (std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size()) {
      fail("short write to segment footer in " + config_.directory);
      return;
    }
    bytes_written_ += footer.size();
  }
  std::fflush(file_);
  if (config_.fsync_on_rotate) fsync(fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
}

void StreamingFileSink::accept(TraceEvent ev) {
  if (failed_ || closed_) return;
  ProfSpan span(ProfCat::kSink);
  if (config_.format == TraceFormat::kWtr) {
    encoder_.append_event(ev, buf_);
  } else {
    append_jsonl(ev, buf_);
    buf_ += '\n';
  }
  ++events_;
  ++events_in_segment_;
  if (buf_.size() >= kFlushBytes) flush_buffer();
  if (segment_written_ + buf_.size() >= config_.segment_bytes) {
    rotate();
    if (failed_) return;
    ++segment_index_;
    segment_written_ = 0;
    events_in_segment_ = 0;
    crc_.reset();
    encoder_.reset();
    open_segment();
  }
}

bool StreamingFileSink::close() {
  if (closed_) return ok();
  closed_ = true;
  if (!failed_ && file_ != nullptr) rotate();
  return ok();
}

void StreamingFileSink::register_metrics(MetricsRegistry& registry,
                                         const std::string& prefix) const {
  registry.add_gauge(prefix + ".events",
                     [this] { return static_cast<double>(events_); });
  registry.add_gauge(prefix + ".bytes_written",
                     [this] { return static_cast<double>(bytes_written_); });
  registry.add_gauge(prefix + ".segments",
                     [this] { return static_cast<double>(segments()); });
  registry.add_gauge(prefix + ".flushes",
                     [this] { return static_cast<double>(flushes_); });
}

}  // namespace wsn::obs
