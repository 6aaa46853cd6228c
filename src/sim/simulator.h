// Discrete-event simulator: the execution substrate for both the virtual
// architecture layer and the physical network layer.
//
// This stands in for the ns-3/OMNeT++-class simulator the reproduction bands
// call for: a single-threaded event loop with a virtual clock, deterministic
// tie-breaking, and a seeded RNG, sufficient to measure the latency and
// energy quantities the paper's cost model defines.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace wsn::sim {

/// Single-threaded discrete-event simulator.
///
/// Usage:
///   Simulator sim(seed);
///   sim.post([&]{ ... });                 // at current time
///   sim.schedule_in(2.5, [&]{ ... });     // relative delay
///   sim.run();                            // until the queue drains
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Time now() const { return queue_.now(); }
  Rng& rng() { return rng_; }

  /// Schedules `fn` at absolute time `at` (finite and >= now()). The
  /// closure is constructed straight into its queue slot. Throws
  /// std::invalid_argument for a time in the past, NaN or infinite.
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    if (at < now()) {
      throw std::invalid_argument("Simulator: cannot schedule in the past");
    }
    return queue_.schedule(at, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (finite and >= 0).
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    return schedule_at(now() + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at the current time (after already-pending events at
  /// this instant, preserving FIFO order).
  template <typename F>
  EventId post(F&& fn) {
    return queue_.schedule(now(), std::forward<F>(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// A fresh trace correlation id for one logical message or collective:
  /// 1, 2, ... in this simulator, never 0.
  std::uint64_t next_flow() { return ++flow_; }

  std::size_t pending() const { return queue_.live(); }
  std::uint64_t events_processed() const { return queue_.dispatched(); }

  /// Read-only kernel introspection (depth, tombstones, peak, skip counts)
  /// for the telemetry gauges.
  const EventQueue& queue() const { return queue_; }

  /// Runs one event. Returns false if the queue was empty.
  bool step() {
    if (queue_.empty()) return false;
    // The profiler span covers the whole dispatch — the pop, the callback,
    // which runs in its queue slot, and the tombstone skips and bucket
    // openings that bring the next live event to the front — which is
    // exactly the unit the events/sec gate and the kernel-overhaul ROADMAP
    // item measure. So the next_time() that run_until() calls between spans
    // finds nothing left to do. One branch when the profiler is disarmed;
    // see obs/profiler.h.
    obs::ProfSpan span(obs::ProfCat::kDispatch);
    queue_.dispatch();
    return true;
  }

  /// Runs until the queue drains. `max_events` guards against runaway
  /// protocols; exceeding it throws.
  void run(std::uint64_t max_events = kDefaultEventBudget) {
    std::uint64_t n = 0;
    while (step()) {
      if (++n > max_events) {
        throw std::runtime_error("Simulator: event budget exceeded");
      }
    }
  }

  /// Runs events with timestamp <= `until`, then sets the clock to `until`.
  /// An infinite `until` runs to quiescence like run() and leaves the clock
  /// at the last event, so the simulator can still schedule; a NaN `until`
  /// throws std::invalid_argument.
  void run_until(Time until, std::uint64_t max_events = kDefaultEventBudget) {
    if (std::isnan(until)) {
      throw std::invalid_argument("Simulator: run_until(NaN)");
    }
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.next_time() <= until) {
      step();
      if (++n > max_events) {
        throw std::runtime_error("Simulator: event budget exceeded");
      }
    }
    if (until > now() && std::isfinite(until)) queue_.advance(until);
  }

  /// Registers the kernel telemetry gauges — queue depth, tombstones,
  /// lifetime scheduled count, peak queue size, lazy-skip count, events
  /// processed, heap and wheel pops, and the key blocks and slot chunks the
  /// queue has grown to — under `prefix` in the unified registry.
  /// The obs::SimProfiler adds the host-time side (prof.events_per_sec);
  /// these gauges are pure simulated-kernel state and poll at snapshot
  /// time.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "kernel") const {
    registry.add_gauge(prefix + ".queue_depth", [this] {
      return static_cast<double>(queue_.live());
    });
    registry.add_gauge(prefix + ".tombstones", [this] {
      return static_cast<double>(queue_.tombstones());
    });
    registry.add_gauge(prefix + ".total_scheduled", [this] {
      return static_cast<double>(queue_.total_scheduled());
    });
    registry.add_gauge(prefix + ".peak_depth", [this] {
      return static_cast<double>(queue_.peak_size());
    });
    registry.add_gauge(prefix + ".cancelled_skips", [this] {
      return static_cast<double>(queue_.cancelled_skips());
    });
    registry.add_gauge(prefix + ".events_processed", [this] {
      return static_cast<double>(queue_.dispatched());
    });
    registry.add_gauge(prefix + ".heap_pops", [this] {
      return static_cast<double>(queue_.heap_pops());
    });
    registry.add_gauge(prefix + ".wheel_pops", [this] {
      return static_cast<double>(queue_.wheel_pops());
    });
    registry.add_gauge(prefix + ".lane_blocks", [this] {
      return static_cast<double>(queue_.lane_blocks());
    });
    registry.add_gauge(prefix + ".slot_chunks", [this] {
      return static_cast<double>(queue_.slot_chunks());
    });
  }

  static constexpr std::uint64_t kDefaultEventBudget = 500'000'000;

 private:
  EventQueue queue_;
  Rng rng_;
  std::uint64_t flow_ = 0;
};

}  // namespace wsn::sim
