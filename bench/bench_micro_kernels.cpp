// Google-benchmark micro kernels: throughput of the computational primitives
// the experiments lean on (reference labeling, boundary merges, the full
// divide-and-conquer pass, Morton indexing, emulation-protocol setup), plus
// the tracing-overhead proof (disabled tracing must cost nothing on the
// send hot path).
#include <benchmark/benchmark.h>

#include "app/boundary.h"
#include "app/dnc.h"
#include "app/field.h"
#include "app/labeling.h"
#include "app/topographic.h"
#include "core/virtual_network.h"
#include "bench/bench_common.h"
#include "core/grid_topology.h"
#include "emulation/physical_stack.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace.h"

namespace {

using namespace wsn;

void BM_ReferenceLabeling(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  const app::FeatureGrid grid = app::random_grid(side, 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::label_regions(grid));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_ReferenceLabeling)->Arg(16)->Arg(64)->Arg(256);

void BM_DivideAndConquerLabeling(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(2);
  const app::FeatureGrid grid = app::random_grid(side, 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::dnc_label(grid));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_DivideAndConquerLabeling)->Arg(16)->Arg(64)->Arg(256);

void BM_BoundaryMerge(benchmark::State& state) {
  const auto side = static_cast<std::uint32_t>(state.range(0));
  sim::Rng rng(3);
  const app::FeatureGrid grid = app::random_grid(side, 0.5, rng);
  const auto half = static_cast<std::int32_t>(side / 2);
  const app::BlockSummary left =
      app::BlockSummary::of_rect(grid, 0, 0, side / 2, side);
  const app::BlockSummary right =
      app::BlockSummary::of_rect(grid, 0, half, side / 2, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app::merge(left, right));
  }
}
BENCHMARK(BM_BoundaryMerge)->Arg(16)->Arg(64)->Arg(256);

void BM_MortonRoundTrip(benchmark::State& state) {
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::morton_index(core::morton_coord(k)));
    k = (k + 1) & 0xffffff;
  }
}
BENCHMARK(BM_MortonRoundTrip);

void BM_VirtualRoundTopographic(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(4);
  const app::FeatureGrid grid = app::random_grid(side, 0.5, rng);
  for (auto _ : state) {
    sim::Simulator sim(1);
    core::VirtualNetwork vnet(sim, core::GridTopology(side),
                              core::uniform_cost_model());
    benchmark::DoNotOptimize(app::run_topographic_query(vnet, grid));
  }
}
BENCHMARK(BM_VirtualRoundTopographic)->Arg(8)->Arg(16)->Arg(32);

void BM_EmulationSetup(benchmark::State& state) {
  const auto grid_side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    emulation::PhysicalStack stack(grid_side, grid_side * grid_side * 10, 1.3,
                                   7);
    benchmark::DoNotOptimize(stack.emulation_result.broadcasts);
  }
}
BENCHMARK(BM_EmulationSetup)->Arg(2)->Arg(4)->Arg(8);

// Tracing-overhead proof for the ISSUE-1 acceptance criterion: the virtual
// send hot path with tracing disabled must be indistinguishable from the
// pre-obs baseline, i.e. BM_VirtualSendTracingOff ~= what this kernel
// measured before the obs layer existed, and the assertion below proves the
// disabled path emitted nothing. BM_VirtualSendNullSink bounds the cost of
// the fully-armed path for comparison.
void send_kernel(benchmark::State& state) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(16),
                            core::uniform_cost_model());
  const core::GridCoord a{0, 0};
  const core::GridCoord b{15, 15};
  for (auto _ : state) {
    vnet.send(a, b, 0.0, 1.0);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_VirtualSendTracingOff(benchmark::State& state) {
  // Sink installed but every category masked: the guard must early-out
  // before building any event. The canary asserts it did.
  obs::RingBufferSink canary(16);
  obs::ScopedTrace guard(canary, /*mask=*/0);
  send_kernel(state);
  if (canary.size() != 0 || canary.dropped() != 0) {
    state.SkipWithError("disabled tracing emitted events on the hot path");
  }
}
BENCHMARK(BM_VirtualSendTracingOff);

void BM_VirtualSendNullSink(benchmark::State& state) {
  obs::NullSink sink;
  obs::ScopedTrace guard(sink, obs::kAllCategories);
  send_kernel(state);
  if (sink.accepted() == 0) {
    state.SkipWithError("armed tracing emitted nothing; guard is broken");
  }
}
BENCHMARK(BM_VirtualSendNullSink);

// Profiler-overhead proof (same shape as the tracing canary above): with
// the profiler disarmed, the dispatch hot path pays one call + one branch
// per ProfSpan, and the canary asserts nothing was recorded. Compare against
// BM_DispatchProfilerArmed for the armed cost (two clock reads + bucket
// arithmetic per span).
void dispatch_kernel(benchmark::State& state) {
  sim::Simulator sim(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_in(static_cast<double>(i % 7), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

void BM_DispatchProfilerOff(benchmark::State& state) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  prof.disarm();  // leave it provably disarmed with clean buckets
  dispatch_kernel(state);
  if (prof.bucket(obs::ProfCat::kDispatch).count != 0) {
    state.SkipWithError("disarmed profiler recorded spans on the hot path");
  }
}
BENCHMARK(BM_DispatchProfilerOff);

void BM_DispatchProfilerArmed(benchmark::State& state) {
  obs::SimProfiler& prof = obs::profiler();
  prof.arm();
  dispatch_kernel(state);
  const bool empty = prof.bucket(obs::ProfCat::kDispatch).count == 0;
  prof.disarm();
  if (empty) {
    state.SkipWithError("armed profiler recorded nothing; guard is broken");
  }
}
BENCHMARK(BM_DispatchProfilerArmed);

// Export-allocation canary for the streaming capture path: append_jsonl
// into a warmed buffer must not allocate — that is what makes
// StreamingFileSink's per-event cost flat (bench_trace E23 measures the
// end-to-end pipeline; this pins the serializer alone).
void BM_AppendJsonlReuse(benchmark::State& state) {
  obs::TraceEvent ev;
  ev.time = 1234.5;
  ev.node = 42;
  ev.category = obs::Category::kVirtual;
  ev.name = "send";
  ev.flow = 7;
  ev.attrs = {{"dst", std::int64_t{99}},
              {"size", 1.0},
              {"hops", std::uint64_t{3}}};
  std::string line;
  obs::append_jsonl(ev, line);  // warm the buffer past its final size
  std::uint64_t events = 0;
  const obs::AllocStats alloc0 = obs::global_alloc_stats();
  for (auto _ : state) {
    line.clear();
    obs::append_jsonl(ev, line);
    benchmark::DoNotOptimize(line.data());
    ++events;
  }
  const obs::AllocStats alloc1 = obs::global_alloc_stats();
  // The benchmark harness itself may allocate O(1) around the loop; a
  // serializer leak shows up as O(iterations).
  if (alloc1.count - alloc0.count >= events) {
    state.SkipWithError("append_jsonl allocated on the reuse path");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetBytesProcessed(static_cast<std::int64_t>(events * line.size()));
}
BENCHMARK(BM_AppendJsonlReuse);

}  // namespace

BENCHMARK_MAIN();
