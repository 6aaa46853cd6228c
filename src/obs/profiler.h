// Host-side self-profiling for the simulator.
//
// Everything else in obs/ observes the *simulated* network; this observes
// the *simulator*: where host wall-clock time goes (per-layer spans with
// self-time attribution), how healthy the kernel's event queue is (depth,
// tombstones, events/sec), and how much allocation pressure a phase
// generates (global new/delete hooks). It exists so the kernel overhaul the
// ROADMAP calls for (calendar queue, then PDES) is measured, not guessed:
// bench_kernel and `wsn-inspect perf` read these numbers, and CI gates an
// events/sec baseline on them.
//
// Design constraints, in order:
//
//   1. Non-perturbing. The profiler reads a monotonic host clock and writes
//      host-side aggregates. It never touches the simulator clock, the RNG,
//      the event queue, or the simulator's flow counter, so simulated-time
//      traces are byte-identical with the profiler armed or not
//      (test_profiler asserts this on a full campaign).
//   2. Near-zero cost when disarmed. A ProfSpan on a disarmed profiler is
//      one call + one predictable branch (the same budget as the tracer's
//      `enabled()` guard); bench_micro_kernels carries the canary proving a
//      disarmed profiler records nothing on the dispatch hot path.
//   3. Cheap when armed. Categories are a fixed enum indexing a flat array
//      of buckets — no hashing, no allocation per span. The only per-span
//      work is two steady_clock reads and a handful of integer ops.
//
// Self-time accounting: spans nest on an explicit frame stack (the
// simulation is single-threaded). When a span closes, its elapsed time goes
// to its category's `total_ns`, its elapsed minus its children's elapsed
// goes to `self_ns`, and its elapsed is charged to the parent frame's child
// accumulator. Summing `self_ns` over all categories therefore never
// double-counts nested work, which is what makes the `wsn-inspect perf`
// top-N table trustworthy.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wsn::obs {

class MetricsRegistry;

/// Fixed profiling categories — one per instrumented layer/hot path.
enum class ProfCat : std::uint8_t {
  kDispatch = 0,   // sim: one EventQueue::dispatch (sift + callback)
  kLinkTx = 1,     // net: LinkLayer::broadcast / unicast
  kLinkRx = 2,     // net: scheduled LinkLayer delivery (rx charge + handler)
  kArq = 3,        // net: ReliableChannel send / frame handling
  kDetector = 4,   // emulation: FailureDetector beats/watchdogs/control
  kBinding = 5,    // emulation: leader (re)binding and overlay rebinds
  kTraceEmit = 6,  // obs: Tracer::emit fan-out
  kSink = 7,       // obs: trace sink accept (ring buffer write)
  kPhase = 8,      // user-defined phases (quickstart setup/query/campaign)
  kApp = 9,        // app: the Figure 4 program's rules and their hooks
};
inline constexpr std::size_t kProfCatCount = 10;

/// Stable short name used in exports ("dispatch", "link_tx", ...).
const char* prof_cat_name(ProfCat c);

/// Aggregated host time of one category.
struct ProfBucket {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // wall time inside spans of this category
  std::uint64_t self_ns = 0;   // total minus time inside nested spans
  std::uint64_t min_ns = 0;    // fastest single span (0 when count == 0)
  std::uint64_t max_ns = 0;    // slowest single span
};

/// Global allocation pressure (operator new hook): monotonic process-wide
/// totals; the profiler reports deltas between arm() and now.
struct AllocStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Process-wide totals since program start. Always counted (two relaxed
/// atomic adds per allocation — far below malloc's own cost) so arming the
/// profiler cannot change allocator behavior mid-run.
AllocStats global_alloc_stats();

/// One completed span kept in the bounded span log, for the host-time
/// Chrome track. Times are ns since arm().
struct HostSpan {
  ProfCat cat = ProfCat::kDispatch;
  std::uint32_t depth = 0;  // nesting depth at begin (0 = top level)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string label;  // non-empty only for kPhase spans
};

/// A named profiling phase: wall-clock window plus the allocation delta it
/// generated. Phases partition the armed window in call order.
struct ProfPhase {
  std::string name;
  std::uint64_t start_ns = 0;  // since arm()
  std::uint64_t end_ns = 0;    // 0 while the phase is still open
  AllocStats alloc;            // allocations during the phase
};

class SimProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// The hot-path guard: true between arm() and disarm().
  bool armed() const { return armed_; }

  /// Starts (or restarts) a profiling window: clears all buckets, phases,
  /// and the span log; records the host-time and allocation baselines.
  /// Arm only when no ProfSpan is open.
  void arm();

  /// Freezes the window: elapsed_ns() stops advancing, spans stop
  /// recording. Aggregates stay readable until the next arm().
  void disarm();

  /// Host ns since arm() (frozen at disarm()).
  std::uint64_t elapsed_ns() const;

  const ProfBucket& bucket(ProfCat c) const {
    return buckets_[static_cast<std::size_t>(c)];
  }

  /// Allocation delta since arm() (frozen at disarm()).
  AllocStats allocs() const;

  /// Closes the open phase (if any) and opens a named one. No-op when
  /// disarmed.
  void begin_phase(std::string name);
  /// Closes the open phase without starting another.
  void end_phase();
  const std::vector<ProfPhase>& phases() const { return phases_; }

  /// Caps the span log (0 disables logging; default 0). Spans beyond the
  /// cap are counted in span_log_dropped(), oldest kept — the log is a
  /// prefix of the run, which is what the Chrome track wants.
  void set_span_log_capacity(std::size_t capacity);
  const std::vector<HostSpan>& span_log() const { return span_log_; }
  std::uint64_t span_log_dropped() const { return span_log_dropped_; }

  /// Simulated-time context for the host-vs-sim ratio and events/sec;
  /// callers set it just before to_json()/register_metrics() snapshots.
  /// `sim_time` is in cost-model units, `sim_events` the kernel's processed
  /// count over the armed window.
  void note_sim(double sim_time, std::uint64_t sim_events) {
    sim_time_ = sim_time;
    sim_events_ = sim_events;
  }
  double sim_time() const { return sim_time_; }
  std::uint64_t sim_events() const { return sim_events_; }

  /// Kernel events dispatched per host second over the armed window, from
  /// note_sim() (falling back to the dispatch bucket count). 0 before any
  /// time has elapsed.
  double events_per_sec() const;

  /// One JSON object with everything above — the perf snapshot format that
  /// `wsn-inspect perf` consumes:
  ///   {"prof":{"host_ns":..,"sim_time":..,"sim_events":..,
  ///            "events_per_sec":..,
  ///            "spans":{"dispatch":{"count":..,"total_ns":..,"self_ns":..,
  ///                                 "min_ns":..,"max_ns":..},...},
  ///            "alloc":{"count":..,"bytes":..},
  ///            "phases":[{"name":..,"start_ns":..,"end_ns":..,
  ///                       "alloc_count":..,"alloc_bytes":..},...]}}
  std::string to_json() const;

  /// Registers prof.* gauges (per-category count/total/self ns, host_ms,
  /// events_per_sec, alloc counters) in the unified registry. The registry
  /// borrows this profiler; keep it alive.
  void register_metrics(MetricsRegistry& registry,
                        const std::string& prefix = "prof") const;

  // --- span machinery (called by ProfSpan; not user API) ---
  void push_frame(ProfCat cat, const char* label);
  void pop_frame();

 private:
  struct Frame {
    ProfCat cat;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    const char* label;  // borrowed; only kPhase spans carry one
  };

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }

  bool armed_ = false;
  Clock::time_point t0_{};
  std::uint64_t frozen_ns_ = 0;
  ProfBucket buckets_[kProfCatCount] = {};
  std::vector<Frame> frames_;
  std::vector<HostSpan> span_log_;
  std::size_t span_log_capacity_ = 0;
  std::uint64_t span_log_dropped_ = 0;
  std::vector<ProfPhase> phases_;
  AllocStats alloc_at_arm_;
  AllocStats alloc_frozen_;
  double sim_time_ = 0.0;
  std::uint64_t sim_events_ = 0;
};

/// The process-global profiler all instrumentation sites consult (same
/// idiom as obs::tracer()).
SimProfiler& profiler();

/// RAII span: records into `profiler()` iff armed at construction. The
/// disarmed cost is the profiler() call plus one branch.
class ProfSpan {
 public:
  explicit ProfSpan(ProfCat cat, const char* label = nullptr) {
    SimProfiler& p = profiler();
    if (p.armed()) {
      prof_ = &p;
      p.push_frame(cat, label);
    }
  }
  ~ProfSpan() {
    if (prof_ != nullptr) prof_->pop_frame();
  }
  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

 private:
  SimProfiler* prof_ = nullptr;
};

}  // namespace wsn::obs
