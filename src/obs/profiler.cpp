#include "obs/profiler.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "obs/json.h"
#include "obs/metrics_registry.h"

// ---------------------------------------------------------------------------
// Global allocation hooks.
//
// Replacing the global operator new/delete lets the profiler report the
// allocation pressure of a phase without touching a single call site. The
// hooks count unconditionally (two relaxed atomic adds, dwarfed by malloc
// itself) so arming the profiler can never change allocator behavior
// mid-run; SimProfiler reports deltas against its arm() baseline. The
// replacements forward to malloc/free, which keeps them compatible with
// ASan/UBSan (the sanitizers intercept malloc underneath). Over-aligned
// allocations fall through to the default aligned operators and are simply
// not counted — a coverage gap, not a correctness issue.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_malloc(std::size_t n) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The nothrow forms are replaced too (std::stable_sort's buffer comes from
// them): under ASan the default ones are the sanitizer's, and freeing their
// memory with std::free below is an alloc-dealloc mismatch.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wsn::obs {

AllocStats global_alloc_stats() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

const char* prof_cat_name(ProfCat c) {
  switch (c) {
    case ProfCat::kDispatch: return "dispatch";
    case ProfCat::kLinkTx: return "link_tx";
    case ProfCat::kLinkRx: return "link_rx";
    case ProfCat::kArq: return "arq";
    case ProfCat::kDetector: return "fd";
    case ProfCat::kBinding: return "binding";
    case ProfCat::kTraceEmit: return "trace_emit";
    case ProfCat::kSink: return "sink";
    case ProfCat::kPhase: return "phase";
    case ProfCat::kApp: return "app";
  }
  return "phase";
}

SimProfiler& profiler() {
  static SimProfiler instance;
  return instance;
}

void SimProfiler::arm() {
  armed_ = true;
  t0_ = Clock::now();
  frozen_ns_ = 0;
  for (ProfBucket& b : buckets_) b = ProfBucket{};
  frames_.clear();
  span_log_.clear();
  span_log_dropped_ = 0;
  phases_.clear();
  alloc_at_arm_ = global_alloc_stats();
  alloc_frozen_ = AllocStats{};
  sim_time_ = 0.0;
  sim_events_ = 0;
}

void SimProfiler::disarm() {
  if (!armed_) return;
  end_phase();
  frozen_ns_ = now_ns();
  const AllocStats now = global_alloc_stats();
  alloc_frozen_ = {now.count - alloc_at_arm_.count,
                   now.bytes - alloc_at_arm_.bytes};
  armed_ = false;
  frames_.clear();  // spans still open lose their sample; see header
}

std::uint64_t SimProfiler::elapsed_ns() const {
  return armed_ ? now_ns() : frozen_ns_;
}

AllocStats SimProfiler::allocs() const {
  if (!armed_) return alloc_frozen_;
  const AllocStats now = global_alloc_stats();
  return {now.count - alloc_at_arm_.count, now.bytes - alloc_at_arm_.bytes};
}

void SimProfiler::begin_phase(std::string name) {
  if (!armed_) return;
  end_phase();
  ProfPhase phase;
  phase.name = std::move(name);
  phase.start_ns = now_ns();
  phase.alloc = allocs();  // snapshot; end_phase converts to a delta
  phases_.push_back(std::move(phase));
}

void SimProfiler::end_phase() {
  if (!armed_ || phases_.empty() || phases_.back().end_ns != 0) return;
  ProfPhase& phase = phases_.back();
  phase.end_ns = now_ns();
  const AllocStats now = allocs();
  phase.alloc = {now.count - phase.alloc.count, now.bytes - phase.alloc.bytes};
}

void SimProfiler::set_span_log_capacity(std::size_t capacity) {
  span_log_capacity_ = capacity;
  if (span_log_.size() > capacity) span_log_.resize(capacity);
  span_log_.reserve(capacity);
}

void SimProfiler::push_frame(ProfCat cat, const char* label) {
  frames_.push_back(Frame{cat, now_ns(), 0, label});
}

void SimProfiler::pop_frame() {
  // Disarm-while-open drops the in-flight sample: the frame stack was
  // cleared, so the matching pop must not touch a fresh window's frames.
  if (frames_.empty()) return;
  const Frame frame = frames_.back();
  frames_.pop_back();
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - frame.start_ns;
  ProfBucket& b = buckets_[static_cast<std::size_t>(frame.cat)];
  if (b.count == 0 || dur < b.min_ns) b.min_ns = dur;
  if (dur > b.max_ns) b.max_ns = dur;
  ++b.count;
  b.total_ns += dur;
  b.self_ns += dur - frame.child_ns;
  if (!frames_.empty()) frames_.back().child_ns += dur;
  if (span_log_.size() < span_log_capacity_) {
    HostSpan span;
    span.cat = frame.cat;
    span.depth = static_cast<std::uint32_t>(frames_.size());
    span.start_ns = frame.start_ns;
    span.dur_ns = dur;
    if (frame.label != nullptr) span.label = frame.label;
    span_log_.push_back(std::move(span));
  } else if (span_log_capacity_ > 0) {
    ++span_log_dropped_;
  }
}

double SimProfiler::events_per_sec() const {
  const std::uint64_t ns = elapsed_ns();
  if (ns == 0) return 0.0;
  const std::uint64_t events =
      sim_events_ != 0 ? sim_events_ : bucket(ProfCat::kDispatch).count;
  return static_cast<double>(events) * 1e9 / static_cast<double>(ns);
}

std::string SimProfiler::to_json() const {
  std::string out = "{\"prof\":{\"host_ns\":";
  out += std::to_string(elapsed_ns());
  out += ",\"sim_time\":";
  json_append_double(out, sim_time_);
  out += ",\"sim_events\":";
  out += std::to_string(sim_events_);
  out += ",\"events_per_sec\":";
  json_append_double(out, events_per_sec());
  out += ",\"spans\":{";
  bool first = true;
  for (std::size_t i = 0; i < kProfCatCount; ++i) {
    const ProfBucket& b = buckets_[i];
    if (b.count == 0) continue;
    if (!first) out += ',';
    first = false;
    json_append_string(out, prof_cat_name(static_cast<ProfCat>(i)));
    out += ":{\"count\":";
    out += std::to_string(b.count);
    out += ",\"total_ns\":";
    out += std::to_string(b.total_ns);
    out += ",\"self_ns\":";
    out += std::to_string(b.self_ns);
    out += ",\"min_ns\":";
    out += std::to_string(b.min_ns);
    out += ",\"max_ns\":";
    out += std::to_string(b.max_ns);
    out += '}';
  }
  out += "},\"alloc\":{\"count\":";
  const AllocStats alloc = allocs();
  out += std::to_string(alloc.count);
  out += ",\"bytes\":";
  out += std::to_string(alloc.bytes);
  out += "},\"phases\":[";
  first = true;
  for (const ProfPhase& phase : phases_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json_append_string(out, phase.name);
    out += ",\"start_ns\":";
    out += std::to_string(phase.start_ns);
    out += ",\"end_ns\":";
    out += std::to_string(phase.end_ns);
    out += ",\"alloc_count\":";
    out += std::to_string(phase.alloc.count);
    out += ",\"alloc_bytes\":";
    out += std::to_string(phase.alloc.bytes);
    out += '}';
  }
  out += "]}}";
  return out;
}

void SimProfiler::register_metrics(MetricsRegistry& registry,
                                   const std::string& prefix) const {
  for (std::size_t i = 0; i < kProfCatCount; ++i) {
    const auto c = static_cast<ProfCat>(i);
    const std::string base = prefix + "." + prof_cat_name(c);
    registry.add_gauge(base + ".count", [this, c] {
      return static_cast<double>(bucket(c).count);
    });
    registry.add_gauge(base + ".total_ns", [this, c] {
      return static_cast<double>(bucket(c).total_ns);
    });
    registry.add_gauge(base + ".self_ns", [this, c] {
      return static_cast<double>(bucket(c).self_ns);
    });
  }
  registry.add_gauge(prefix + ".host_ms", [this] {
    return static_cast<double>(elapsed_ns()) / 1e6;
  });
  registry.add_gauge(prefix + ".events_per_sec",
                     [this] { return events_per_sec(); });
  registry.add_gauge(prefix + ".alloc_count", [this] {
    return static_cast<double>(allocs().count);
  });
  registry.add_gauge(prefix + ".alloc_bytes", [this] {
    return static_cast<double>(allocs().bytes);
  });
}

}  // namespace wsn::obs
