// Quickstart: the whole methodology in ~60 lines.
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
// Robustness (see README "Fault tolerance"):
//   --campaign <json>      additionally replay a fault-injection campaign
//                          (e.g. campaigns/loss_burst.json or
//                          campaigns/region_outage.json) against a physical
//                          deployment hardened with ARQ and the distributed
//                          heartbeat/lease failure detector, appended after
//                          the classic output. Plans carrying
//                          state_corruption events (campaigns/corruption.json)
//                          additionally switch on the detector's
//                          self-stabilization audit rounds and report the
//                          corruption strikes, audit activity, and
//                          re-convergence at the end of the campaign.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analytical.h"
#include "app/field.h"
#include "app/queries.h"
#include "app/topographic.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "emulation/failure_detector.h"
#include "emulation/physical_stack.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/stream_sink.h"
#include "obs/trace.h"
#include "sim/depletion_monitor.h"
#include "sim/fault_plan.h"

namespace {

std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return "";
}

/// The --campaign phase: a physical 8x8 deployment with the ARQ channel and
/// the distributed failure detector (heartbeat/lease re-election — no
/// oracle), kept alive until the metrics dump so its instruments can be
/// registered.
struct CampaignPhase {
  wsn::emulation::PhysicalStack stack{8, 200, 1.3, 1};
  std::unique_ptr<wsn::emulation::FailureDetector> detector;
  std::unique_ptr<wsn::sim::FaultInjector> injector;
  std::unique_ptr<wsn::sim::DepletionMonitor> monitor;
};

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

  // Optional fault-injection campaign, appended after the classic output so
  // the default run stays byte-identical.
  std::unique_ptr<CampaignPhase> campaign;
  const std::string campaign_path = arg_value(argc, argv, "--campaign");
  if (!campaign_path.empty()) {
    std::ifstream in(campaign_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read campaign %s\n",
                   campaign_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sim::FaultPlan plan;
    try {
      plan = sim::FaultPlan::from_json(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    bool has_corruption = false;
    bool has_membership = false;
    for (const sim::FaultEvent& ev : plan.events) {
      if (ev.kind == sim::FaultKind::kStateCorruption) {
        has_corruption = true;
        if (ev.target == sim::CorruptionTarget::kMembership) {
          has_membership = true;
        }
      }
    }

    if (profiling) obs::profiler().begin_phase("campaign");
    campaign = std::make_unique<CampaignPhase>();
    CampaignPhase& c = *campaign;
    if (!c.stack.healthy()) {
      std::fprintf(stderr, "error: campaign deployment unhealthy\n");
      return 1;
    }
    net::ReliableConfig rcfg;
    rcfg.max_retries = 3;
    c.stack.enable_arq(rcfg);
    // Batteries are infinite unless the plan carries set_budget events, so
    // the monitor and the proactive-handoff mark are inert for the classic
    // campaigns and their output stays byte-identical.
    c.monitor = std::make_unique<sim::DepletionMonitor>(c.stack.sim,
                                                        *c.stack.link);
    c.monitor->arm();
    emulation::FailureDetectorConfig fd_cfg;
    fd_cfg.handoff_low_water = 48.0;  // 60% of depletion.json's 80 headroom
    // Self-stabilization audits cost periodic floods, so they come on only
    // when the plan actually corrupts state; the classic campaigns keep the
    // audit-free (byte-identical) detector schedule.
    if (has_corruption) fd_cfg.audit_period = 15.0;
    // Membership-target strikes additionally need live beliefs/rosters
    // (and the adoption machinery) to have anything to scramble and heal.
    if (has_membership) fd_cfg.membership = true;
    c.detector =
        std::make_unique<emulation::FailureDetector>(*c.stack.overlay, fd_cfg);
    c.injector = std::make_unique<sim::FaultInjector>(
        c.stack.sim, *c.stack.link, c.stack.mapper.get());
    c.injector->set_leader_lookup([&c](const core::GridCoord& cell) {
      return c.stack.overlay->bound_node(cell);
    });
    c.injector->set_corruption_applier(
        [&c](net::NodeId node, sim::CorruptionTarget target) {
          return c.detector->inject_corruption(node, target);
        });
    try {
      c.injector->arm(plan);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    c.detector->start();
    // Apply the campaign's t=0 faults before the first round begins. While
    // the detector runs, the simulator queue never drains, so every phase
    // below advances with run_until instead of run.
    c.stack.sim.run_until(c.stack.sim.now() + 0.5);

    std::printf("\nFault campaign      : %s (%zu events)\n",
                campaign_path.c_str(), plan.events.size());
    std::printf("deployment          : 8x8 grid, 200 nodes, ARQ + "
                "distributed failure detection\n");

    std::vector<core::GridCoord> members;
    std::vector<double> cvalues;
    for (const core::GridCoord& cell : core::GridTopology(8).all_coords()) {
      members.push_back(cell);
      cvalues.push_back(1.0);
    }
    for (int round = 1; round <= 2; ++round) {
      const double round_start = c.stack.sim.now();
      core::PartialResult result;
      core::group_reduce_deadline(
          *c.stack.overlay, members, {0, 0}, cvalues, core::ReduceOp::kSum,
          1.0, 200.0,
          [&result](const core::PartialResult& r) { result = r; });
      c.stack.sim.run_until(round_start + 210.0);
      std::printf("round %d sum         : %.0f from %zu/%zu contributors "
                  "(%s)\n",
                  round, result.value, result.contributors.size(),
                  result.expected.size(),
                  result.complete()
                      ? "complete"
                      : result.deadline_hit ? "deadline hit" : "partial");
    }
    // Let every outage in the plan end and the lease/election machinery
    // settle before reporting, then stop the periodic timers so the final
    // drain terminates. Corruption plans settle for the full analytic
    // stabilization bound so the audit rounds have provably had time to
    // re-converge every cell.
    const double settle =
        plan.down_horizon() + 100.0 +
        (has_corruption ? c.detector->stabilization_bound() : 0.0);
    c.stack.sim.run_until(c.stack.sim.now() + settle);
    const std::size_t unconverged =
        has_corruption ? c.detector->unconverged_cells().size() : 0;
    const std::size_t member_violations =
        has_membership ? c.detector->membership_violations().size() : 0;
    c.detector->stop();
    c.stack.sim.run();
    std::printf("leader elections    : %zu\n", c.detector->claims().size());
    std::printf("battery deaths      : %zu (planned handoffs %zu)\n",
                c.monitor->deaths().size(), c.detector->planned_handoffs());
    std::printf("arq recovery        : %llu retransmits, %llu give-ups\n",
                static_cast<unsigned long long>(
                    c.stack.arq->counters().get("arq.retransmit")),
                static_cast<unsigned long long>(
                    c.stack.arq->counters().get("arq.give_up")));
    if (has_corruption) {
      std::printf("corruption strikes  : %llu applied, %llu skipped (victim "
                  "down)\n",
                  static_cast<unsigned long long>(
                      c.injector->counters().get("fault.corrupt")),
                  static_cast<unsigned long long>(
                      c.injector->counters().get("fault.corrupt_down")));
      std::printf("audit rounds        : %llu floods, %llu route repairs, "
                  "%llu heals, %llu conflicts\n",
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.audit")),
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.route_repair")),
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.audit_heal")),
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.audit_conflict")));
      std::printf("re-convergence      : %zu cells unconverged after the "
                  "%.0fs stabilization bound\n",
                  unconverged, c.detector->stabilization_bound());
    }
    if (has_membership) {
      std::printf("membership repairs  : %llu beliefs healed, %llu rosters "
                  "reinstated\n",
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.member_heal")),
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.roster_heal")));
      std::printf("membership          : %zu violations after settle "
                  "(adoptions %llu, proxy binds %llu)\n",
                  member_violations,
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.adopt")),
                  static_cast<unsigned long long>(
                      c.detector->counters().get("fd.adopt_bind")));
    }
  }

  // Freeze the profiling window before the dumps so the perf snapshot
  // covers the simulation, not the file I/O.
  if (profiling) {
    obs::profiler().disarm();
    std::uint64_t sim_events = sim.events_processed();
    double sim_time = sim.now();
    if (campaign) {
      sim_events += campaign->stack.sim.events_processed();
      sim_time = std::max(sim_time, campaign->stack.sim.now());
    }
    obs::profiler().note_sim(sim_time, sim_events);
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
      if (campaign) {
        campaign->stack.sim.register_metrics(registry, "kernel.campaign");
      }
    }
    if (campaign) {
      campaign->stack.register_metrics(registry);
      campaign->injector->register_metrics(registry);
      campaign->detector->register_metrics(registry);
      campaign->monitor->register_metrics(registry);
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
