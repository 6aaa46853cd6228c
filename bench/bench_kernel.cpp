// Kernel events/sec microbench — the perf gate for the EventQueue.
//
// The ROADMAP's kernel-overhaul item (calendar queue, then PDES) needs a
// number to beat. This bench produces it: raw dispatch throughput of the
// kernel (16-byte keys in four FIFO lanes keyed by delay, a timing wheel
// and a standard-library heap, callbacks run in their slots) under five
// workloads —
//
//   * churn:      steady-state at a fixed queue depth; every dispatched
//                 event schedules one successor at a random delay, so the
//                 queue stays at depth D and nearly every key parks in the
//                 wheel; measured at several D.
//   * cancel:     schedule/cancel mix; half the scheduled events are
//                 cancelled before firing, exercising tombstones and the
//                 lazy-skip path in dispatch().
//   * run_mix:    the soak run phase's schedule shape: a delivery stream at
//                 delay 0.25 and one jittered retransmit timer per send,
//                 which the delivery cancels 98% of the time; the
//                 deliveries leave through a delay lane, the timers through
//                 the wheel, which drops the cancelled ones as a bucket
//                 opens.
//   * quickstart: the full simulation stack (PhysicalStack + overlay
//                 traffic), so the synthetic rows stay anchored to what a
//                 real workload sees per event.
//   * topographic: the paper's case study on stackbench's `query` shape
//                 (16x16 grid, 2048 nodes, ARQ): 20 topographic queries
//                 through the Figure 4 program, with their heap
//                 allocations and the program's own (`app`) host time.
//
// Deterministic fields (depth, ops, events, cancelled, skips, heap pops,
// final queue state, queries, allocs) are gated tightly by
// BENCH_BASELINE.json in the observability CI job; `heap_pops` and
// `wheel_pops` there gate the shares of entries that leave through the
// heap and the wheel rather than a lane. Host-time fields end in
// "_ns" / "_per_sec" and are gated only by the perf-smoke job, one-sided at
// a generous tolerance (see obs/analyze/bench_compare.h).
#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/table.h"
#include "app/field.h"
#include "app/topographic.h"
#include "bench/bench_common.h"
#include "core/primitives.h"
#include "emulation/physical_stack.h"
#include "obs/histogram.h"
#include "obs/profiler.h"
#include "sim/simulator.h"

namespace {

using namespace wsn;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct RunStats {
  std::uint64_t events = 0;
  double host_ns = 0.0;
  obs::Histogram per_event{0.0, 20000.0, 64};  // ns per dispatched event

  double events_per_sec() const {
    return host_ns > 0 ? static_cast<double>(events) * 1e9 / host_ns : 0.0;
  }
  double mean_ns() const {
    return events > 0 ? host_ns / static_cast<double>(events) : 0.0;
  }
};

/// Times `ops` single-event steps, one clock pair per event so the
/// percentile fields reflect the per-dispatch distribution, not a batch
/// average.
RunStats timed_steps(sim::Simulator& sim, std::uint64_t ops) {
  RunStats stats;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto t0 = Clock::now();
    if (!sim.step()) break;
    const auto t1 = Clock::now();
    const double ns = ns_between(t0, t1);
    stats.host_ns += ns;
    stats.per_event.add(ns);
    ++stats.events;
  }
  return stats;
}

/// Steady-state churn at depth D: the queue is pre-filled with D events
/// spread over future time; each dispatched event re-schedules itself a
/// pseudo-random delay ahead, keeping the depth constant.
void churn_row(analysis::Table& table, bench::JsonWriter& json,
               std::size_t depth, std::uint64_t ops) {
  sim::Simulator sim(7);
  struct Reschedule {
    sim::Simulator& sim;
    void operator()() const {
      // Delay pattern decorrelated from the heap layout; derived from the
      // sim RNG so the event sequence is seed-deterministic.
      sim.schedule_in(0.5 + sim.rng().uniform(), Reschedule{sim});
    }
  };
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_in(sim.rng().uniform(), Reschedule{sim});
  }
  const RunStats stats = timed_steps(sim, ops);
  table.row({"churn", analysis::Table::num(depth),
             analysis::Table::num(stats.events),
             analysis::Table::num(sim.pending()),
             analysis::Table::num(stats.events_per_sec(), 0),
             analysis::Table::num(stats.mean_ns(), 0),
             analysis::Table::num(stats.per_event.p99(), 0)});
  json.row("kernel",
           {{"workload", std::string("churn")},
            {"depth", static_cast<std::uint64_t>(depth)},
            {"events", stats.events},
            {"final_depth", static_cast<std::uint64_t>(sim.pending())},
            {"peak_depth",
             static_cast<std::uint64_t>(sim.queue().peak_size())},
            {"heap_pops", sim.queue().heap_pops()},
            {"wheel_pops", sim.queue().wheel_pops()},
            {"events_per_sec", stats.events_per_sec()},
            {"mean_event_ns", stats.mean_ns()},
            {"p50_ns", stats.per_event.p50()},
            {"p90_ns", stats.per_event.p90()},
            {"p99_ns", stats.per_event.p99()}});
}

/// Schedule/cancel mix at a fixed base depth: per dispatched event, two new
/// events are scheduled and one of them immediately cancelled, so half the
/// schedule volume dies as tombstones and dispatch() exercises its lazy
/// skips.
void cancel_row(analysis::Table& table, bench::JsonWriter& json,
                std::size_t depth, std::uint64_t ops) {
  sim::Simulator sim(11);
  struct Mix {
    sim::Simulator& sim;
    void operator()() const {
      sim.schedule_in(0.5 + sim.rng().uniform(), Mix{sim});
      const sim::EventId doomed =
          sim.schedule_in(1.0 + sim.rng().uniform(), [] {});
      sim.cancel(doomed);
    }
  };
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_in(sim.rng().uniform(), Mix{sim});
  }
  const RunStats stats = timed_steps(sim, ops);
  table.row({"cancel", analysis::Table::num(depth),
             analysis::Table::num(stats.events),
             analysis::Table::num(sim.queue().cancelled_skips()),
             analysis::Table::num(stats.events_per_sec(), 0),
             analysis::Table::num(stats.mean_ns(), 0),
             analysis::Table::num(stats.per_event.p99(), 0)});
  json.row("kernel",
           {{"workload", std::string("cancel")},
            {"depth", static_cast<std::uint64_t>(depth)},
            {"events", stats.events},
            {"final_depth", static_cast<std::uint64_t>(sim.pending())},
            {"skips", sim.queue().cancelled_skips()},
            {"tombstones",
             static_cast<std::uint64_t>(sim.queue().tombstones())},
            {"heap_pops", sim.queue().heap_pops()},
            {"wheel_pops", sim.queue().wheel_pops()},
            {"events_per_sec", stats.events_per_sec()},
            {"mean_event_ns", stats.mean_ns()},
            {"p50_ns", stats.per_event.p50()},
            {"p90_ns", stats.per_event.p90()},
            {"p99_ns", stats.per_event.p99()}});
}

/// The soak run phase's schedule shape at a fixed number of senders. Each
/// send queues its delivery 0.25 ahead and arms a retransmit timer at
/// 1.5 * (1 + U(0, 0.25)); the delivery cancels the timer and sends again
/// 98% of the time, and a timer that fires sends again. The deliveries
/// leave through the lane of their delay and the timers through the wheel.
void run_mix_row(analysis::Table& table, bench::JsonWriter& json,
                 std::size_t senders, std::uint64_t ops) {
  sim::Simulator sim(13);
  struct Sender {
    sim::Simulator& sim;
    sim::EventId timer = 0;
    void send() {
      sim.schedule_in(0.25, [this] { deliver(); });
      timer = sim.schedule_in(1.5 * (1.0 + sim.rng().uniform(0.0, 0.25)),
                              [this] { send(); });
    }
    void deliver() {
      if (!sim.rng().chance(0.98)) return;  // lost: the timer resends
      sim.cancel(timer);
      send();
    }
  };
  std::vector<Sender> all;
  all.reserve(senders);  // the callbacks hold each sender's address
  for (std::size_t i = 0; i < senders; ++i) {
    Sender& s = all.emplace_back(Sender{sim});
    sim.schedule_in(sim.rng().uniform(0.0, 0.25), [&s] { s.send(); });
  }
  const RunStats stats = timed_steps(sim, ops);
  table.row({"run_mix", analysis::Table::num(senders),
             analysis::Table::num(stats.events),
             analysis::Table::num(sim.queue().heap_pops()),
             analysis::Table::num(stats.events_per_sec(), 0),
             analysis::Table::num(stats.mean_ns(), 0),
             analysis::Table::num(stats.per_event.p99(), 0)});
  json.row("kernel",
           {{"workload", std::string("run_mix")},
            {"depth", static_cast<std::uint64_t>(senders)},
            {"events", stats.events},
            {"final_depth", static_cast<std::uint64_t>(sim.pending())},
            {"skips", sim.queue().cancelled_skips()},
            {"heap_pops", sim.queue().heap_pops()},
            {"wheel_pops", sim.queue().wheel_pops()},
            {"events_per_sec", stats.events_per_sec()},
            {"mean_event_ns", stats.mean_ns()},
            {"p50_ns", stats.per_event.p50()},
            {"p90_ns", stats.per_event.p90()},
            {"p99_ns", stats.per_event.p99()}});
}

/// The anchor row: a real workload (overlay all-cells-to-collector rounds
/// on a converged PhysicalStack), profiled with the SimProfiler itself so
/// the row dogfoods the instrumentation it gates.
void quickstart_row(analysis::Table& table, bench::JsonWriter& json) {
  constexpr std::size_t kSide = 8;
  constexpr std::size_t kNodes = 200;
  constexpr double kRange = 1.3;
  constexpr int kRounds = 3;
  emulation::PhysicalStack stack(kSide, kNodes, kRange, 1);
  const std::uint64_t setup_events = stack.sim.events_processed();
  const std::uint64_t setup_heap_pops = stack.sim.queue().heap_pops();
  const std::uint64_t setup_wheel_pops = stack.sim.queue().wheel_pops();

  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  for (int round = 0; round < kRounds; ++round) {
    for (const core::GridCoord& c : core::GridTopology(kSide).all_coords()) {
      if (c.row == 0 && c.col == 0) continue;
      stack.overlay->send(c, {0, 0}, int{1}, 1.0);
    }
    stack.sim.run();
  }
  prof.disarm();
  const std::uint64_t events = stack.sim.events_processed() - setup_events;
  prof.note_sim(stack.sim.now(), events);

  const double host_ns = static_cast<double>(prof.elapsed_ns());
  const obs::ProfBucket& dispatch = prof.bucket(obs::ProfCat::kDispatch);
  table.row({"quickstart", "-", analysis::Table::num(events), "-",
             analysis::Table::num(prof.events_per_sec(), 0),
             analysis::Table::num(
                 events > 0 ? host_ns / static_cast<double>(events) : 0.0, 0),
             "-"});
  json.row("kernel",
           {{"workload", std::string("quickstart")},
            {"events", events},
            {"dispatch_count", dispatch.count},
            {"heap_pops", stack.sim.queue().heap_pops() - setup_heap_pops},
            {"wheel_pops", stack.sim.queue().wheel_pops() - setup_wheel_pops},
            {"events_per_sec", prof.events_per_sec()},
            {"mean_event_ns",
             events > 0 ? host_ns / static_cast<double>(events) : 0.0},
            {"dispatch_self_ns", static_cast<double>(dispatch.self_ns)}});
}

/// The app ruler: topographic queries on a converged 16x16, 2048-node
/// stack with ARQ, profiled like the quickstart row. `allocs` counts every
/// heap allocation the queries make; it is deterministic, so the baseline
/// gates it like an event count.
void topographic_row(analysis::Table& table, bench::JsonWriter& json) {
  constexpr std::size_t kSide = 16;
  constexpr std::size_t kNodes = 2048;
  constexpr double kRange = 1.3;
  constexpr std::uint64_t kSeed = 1;
  constexpr std::uint64_t kQueries = 20;
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  stack.enable_arq();
  std::vector<app::FeatureGrid> grids;
  for (std::uint64_t k = 0; k < kQueries; ++k) {
    grids.push_back(
        app::threshold_sample(app::value_noise_field(kSeed + k), kSide, 0.5));
  }
  const std::uint64_t setup_events = stack.sim.events_processed();
  const std::uint64_t setup_heap_pops = stack.sim.queue().heap_pops();
  const std::uint64_t setup_wheel_pops = stack.sim.queue().wheel_pops();

  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  for (const app::FeatureGrid& grid : grids) {
    app::run_topographic_query(*stack.overlay, grid);
  }
  prof.disarm();
  const std::uint64_t events = stack.sim.events_processed() - setup_events;
  prof.note_sim(stack.sim.now(), events);

  const double host_ns = static_cast<double>(prof.elapsed_ns());
  const std::uint64_t allocs = prof.allocs().count;
  table.row({"topographic", "-", analysis::Table::num(events),
             analysis::Table::num(allocs),
             analysis::Table::num(prof.events_per_sec(), 0),
             analysis::Table::num(
                 events > 0 ? host_ns / static_cast<double>(events) : 0.0, 0),
             "-"});
  json.row("kernel",
           {{"workload", std::string("topographic")},
            {"queries", kQueries},
            {"events", events},
            {"allocs", allocs},
            {"heap_pops", stack.sim.queue().heap_pops() - setup_heap_pops},
            {"wheel_pops", stack.sim.queue().wheel_pops() - setup_wheel_pops},
            {"events_per_sec", prof.events_per_sec()},
            {"mean_query_ns", host_ns / static_cast<double>(kQueries)},
            {"app_self_ns",
             static_cast<double>(prof.bucket(obs::ProfCat::kApp).self_ns)}});
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));
  bench::print_header(
      "kernel", "EventQueue dispatch throughput",
      "events/sec of the event-queue kernel under churn, cancellation, "
      "the soak run phase's schedule mix, a full-stack workload and the "
      "topographic query; the baseline the kernel overhaul must beat");

  analysis::Table table({"workload", "depth", "events", "aux", "events/sec",
                         "mean ns", "p99 ns"});
  constexpr std::uint64_t kOps = 200'000;
  for (std::size_t depth : {256u, 4096u, 65536u}) {
    churn_row(table, json, depth, kOps);
  }
  cancel_row(table, json, 4096, kOps);
  run_mix_row(table, json, 512, kOps);
  quickstart_row(table, json);
  topographic_row(table, json);
  std::printf("%s\n", table.str().c_str());
  return 0;
}
