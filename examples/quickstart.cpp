// Quickstart: the whole methodology, end to end.
//
//   1. Define the virtual architecture (grid + uniform cost model).
//   2. Sample a synthetic temperature field and threshold it.
//   3. Run the synthesized topographic-querying program on the virtual grid.
//   4. Read the answers (region count, areas) and the predicted costs.
//
// Build & run:  ./examples/quickstart
//
// Observability (see README "Observability"):
//   --trace <path>         dump the full JSONL event trace
//   --trace-out <dir>      stream the trace to rotating segment files as it
//                          is emitted (bounded memory; see README "Capturing
//                          traces at scale"). Byte-identical to the
//                          in-memory capture modulo encoding.
//   --trace-format <fmt>   segment encoding for --trace-out: "wtr" (compact
//                          binary, default) or "jsonl"
//   --chrome-trace <path>  dump a Chrome trace_event file (about://tracing)
//   --metrics <path>       dump the unified metrics snapshot as JSON
//   --profile <path>       arm the host-side SimProfiler for the whole run
//                          and dump its perf snapshot as JSON (read it with
//                          `wsn-inspect perf`); also adds prof.*/kernel.*
//                          gauges to --metrics and a host-time track to
//                          --chrome-trace. Simulated output and traces are
//                          byte-identical with or without this flag.
//
// Fault campaigns over the physical stack are wsn-chaos's job (README
// "Fault tolerance").
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/analytical.h"
#include "app/field.h"
#include "app/queries.h"
#include "app/topographic.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/stream_sink.h"
#include "obs/trace.h"

namespace {

std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;

  const std::string trace_path = arg_value(argc, argv, "--trace");
  const std::string trace_out = arg_value(argc, argv, "--trace-out");
  const std::string trace_format = arg_value(argc, argv, "--trace-format");
  const std::string chrome_path = arg_value(argc, argv, "--chrome-trace");
  const std::string metrics_path = arg_value(argc, argv, "--metrics");
  const std::string profile_path = arg_value(argc, argv, "--profile");

  if (!trace_format.empty() && trace_format != "wtr" &&
      trace_format != "jsonl") {
    std::fprintf(stderr,
                 "error: unknown --trace-format %s (expected wtr or jsonl)\n",
                 trace_format.c_str());
    return 1;
  }

  // Host-side self-profiling: reads only the host clock, so everything the
  // simulation computes or traces is byte-identical with or without it.
  const bool profiling = !profile_path.empty();
  if (profiling) {
    obs::profiler().set_span_log_capacity(1 << 16);
    obs::profiler().arm();
    obs::profiler().begin_phase("classic");
  }

  // Capture everything the run emits when any dump was requested; with no
  // sink installed, tracing stays disabled and costs one branch per site.
  // --trace/--chrome-trace buffer in memory (they need the whole capture);
  // --trace-out streams to segment files as events arrive, and a TeeSink
  // feeds both when the two are combined.
  obs::RingBufferSink sink(1 << 20);
  const bool ring_wanted = !trace_path.empty() || !chrome_path.empty();
  const bool tracing = ring_wanted || !trace_out.empty();
  std::unique_ptr<obs::StreamingFileSink> stream;
  std::unique_ptr<obs::TeeSink> tee;
  if (!trace_out.empty()) {
    obs::StreamSinkConfig scfg;
    scfg.directory = trace_out;
    scfg.format = trace_format == "jsonl" ? obs::TraceFormat::kJsonl
                                          : obs::TraceFormat::kWtr;
    stream = std::make_unique<obs::StreamingFileSink>(scfg);
  }
  if (tracing) {
    obs::TraceSink* install = &sink;
    if (stream) {
      if (ring_wanted) {
        tee = std::make_unique<obs::TeeSink>(sink, *stream);
        install = tee.get();
      } else {
        install = stream.get();
      }
    }
    obs::tracer().set_sink(install);
    obs::tracer().set_mask(obs::kAllCategories);
  }

  // 1. A 16x16 virtual grid with the paper's unit cost model.
  const std::size_t side = 16;
  sim::Simulator sim(/*seed=*/2004);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model());

  // 2. Three Gaussian hot spots over the unit square; feature = reading
  //    above 0.5.
  sim::Rng field_rng(7);
  const app::FeatureGrid field =
      app::threshold_sample(app::hotspot_field(3, field_rng), side, 0.5);
  std::printf("Thresholded field ('#' = feature node):\n%s\n",
              field.render().c_str());

  // 3. One round of identification-and-labeling of homogeneous regions.
  const app::TopographicOutcome outcome = app::run_topographic_query(vnet, field);

  // 4. Topographic queries over the stored result.
  std::printf("regions found       : %zu\n", app::count_regions(outcome.regions));
  std::printf("total feature area  : %llu cells\n",
              static_cast<unsigned long long>(
                  app::total_feature_area(outcome.regions)));
  if (const auto largest = app::largest_region(outcome.regions)) {
    std::printf("largest region      : %llu cells, rows %d..%d, cols %d..%d\n",
                static_cast<unsigned long long>(largest->area),
                largest->bounds.row_min, largest->bounds.row_max,
                largest->bounds.col_min, largest->bounds.col_max);
  }

  // Costs: measured on the virtual architecture vs the closed form.
  const auto report = vnet.ledger().report();
  const auto predicted =
      analysis::predict_quadtree(side, core::uniform_cost_model());
  std::printf("\nround latency       : %.1f (predicted %.1f)\n",
              outcome.round.finished_at, predicted.latency);
  std::printf("total energy        : %.0f (predicted %.0f)\n", report.total,
              predicted.total_energy);
  std::printf("network messages    : %llu (predicted %llu)\n",
              static_cast<unsigned long long>(outcome.round.messages_sent),
              static_cast<unsigned long long>(predicted.messages));

  // Freeze the profiling window before the dumps so the perf snapshot
  // covers the simulation, not the file I/O.
  if (profiling) {
    obs::profiler().disarm();
    obs::profiler().note_sim(sim.now(), sim.events_processed());
  }

  // Observability dumps.
  if (tracing) {
    obs::tracer().set_sink(nullptr);
    obs::tracer().set_mask(0);
  }
  if (stream) {
    if (!stream->close()) {
      std::fprintf(stderr, "error: streaming trace to %s failed: %s\n",
                   trace_out.c_str(), stream->error().c_str());
      return 1;
    }
    std::printf("streamed trace      : %llu events, %llu segments, %llu "
                "bytes -> %s (%s)\n",
                static_cast<unsigned long long>(stream->events()),
                static_cast<unsigned long long>(stream->segments()),
                static_cast<unsigned long long>(stream->bytes_written()),
                trace_out.c_str(),
                trace_format == "jsonl" ? "jsonl" : "wtr");
  }
  if (ring_wanted) {
    const auto events = sink.events();
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      obs::write_jsonl(events, out);
      if (out) {
        std::printf("trace               : %zu events -> %s (JSONL%s)\n",
                    events.size(), trace_path.c_str(),
                    sink.dropped() > 0 ? ", oldest dropped" : "");
      } else {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_path.c_str());
        return 1;
      }
    }
    if (!chrome_path.empty()) {
      std::ofstream out(chrome_path);
      obs::write_chrome_trace(events, out,
                              profiling ? &obs::profiler() : nullptr);
      if (out) {
        std::printf("chrome trace        : %s (load in about://tracing)\n",
                    chrome_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write chrome trace to %s\n",
                     chrome_path.c_str());
        return 1;
      }
    }
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry registry;
    vnet.register_metrics(registry);
    if (ring_wanted) sink.register_metrics(registry);
    if (stream) stream->register_metrics(registry);
    if (profiling) {
      obs::profiler().register_metrics(registry);
      sim.register_metrics(registry);
    }
    std::ofstream out(metrics_path);
    registry.write_json(out);
    if (out) {
      std::printf("metrics snapshot    : %s (energy totals match the report "
                  "above)\n",
                  metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  if (profiling) {
    std::ofstream out(profile_path);
    out << obs::profiler().to_json() << "\n";
    if (out) {
      std::printf("perf profile        : %s (read with wsn-inspect perf)\n",
                  profile_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write profile to %s\n",
                   profile_path.c_str());
      return 1;
    }
  }
  return 0;
}
