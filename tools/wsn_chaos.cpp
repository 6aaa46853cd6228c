// wsn-chaos: command-line driver for the chaos-soak harness (sim/chaos_soak.h).
//
// Runs N randomized-but-replayable fault campaigns against the full physical
// stack with the distributed failure detector, checking every campaign
// against the trace oracle and the failure-detection invariants. Exit 0 when
// every campaign passes, 1 otherwise. With --out DIR, each failing
// campaign's FaultPlan JSON is written to DIR/campaign_<k>.plan.json (DIR is
// created if missing) and the campaign is replayed (byte-identically) to
// stream its trace into DIR/campaign_<k>/ as wtr segments, so the run is
// reproducible offline (`wsn-chaos --plan DIR/campaign_<k>.plan.json` with
// the same flags and `--only k`, or `wsn-inspect check DIR/campaign_<k>`);
// CI uploads them as artifacts. A file that cannot be written is reported
// on stderr and left out of the "artifacts:" line; a --profile write
// failure makes the exit status 1.
//
// Usage:
//   wsn-chaos [--campaigns N] [--seed S] [--grid N] [--nodes N]
//             [--rounds N] [--budget X] [--depletion] [--corruption]
//             [--membership] [--topology grid|ring|line|mesh|clique]
//             [--plan FILE] [--out DIR] [--only K] [--trace-out DIR]
//             [--profile PATH] [--verbose]
//
// --plan FILE replays the FaultPlan JSON in FILE (e.g. campaigns/*.json)
// instead of generating a plan: every campaign arms FILE on its own stack
// and is checked exactly like a generated one, with what the invariant
// pass tracks derived from the plan (sim/chaos_soak.h). An unreadable or
// invalid plan, or one that targets a node or cell outside the stack,
// prints `error: ...` on stderr and exits 1.
//
// --verbose also prints every round's sum and contributors, and the
// injector's and detector's non-zero counters, under each campaign line.
//
// --topology selects the node-placement shape (net/topology_factory.h);
// grid is the classic kOnePerCellPlus deployment, the others diversify
// cell adjacency so the detector soaks across structurally different
// networks.
//
// --corruption switches the generator into adversarial state-corruption
// mode: plans carry only state_corruption events, the detector runs its
// self-stabilization audit rounds, and every campaign must re-converge to
// one correct leader per cell within the analytic stabilization bound
// (the trace's self-stabilization invariant + end-state agreement + zero
// split-brain).
//
// --membership switches the generator into self-healing membership mode:
// plans carry membership-target corruption strikes plus cell-vacancy
// scenarios (all members but one crash at once), the detector runs with
// live beliefs/rosters and orphan adoption, and every campaign must end
// with zero dark cells and inverse-consistent beliefs/rosters — adoption
// per vacancy within the stabilization bound, vacated cells re-bound to a
// live proxy. Rejected deployment seeds are counted and printed
// (soak.seeds_rejected) so determinism stays auditable.
//
// --trace-out streams every campaign's capture to DIR/campaign_<k>/ as wtr
// segments while it runs (obs/stream_sink.h) — bounded memory regardless of
// campaign length, readable with `wsn-inspect check DIR/campaign_<k>`.
//
// --profile arms the host-side SimProfiler across the whole soak and writes
// its perf snapshot (wsn-inspect perf) to PATH on exit, with the kernel
// events and simulated time summed over every stack it ran: campaigns,
// rejected deployment draws and --out replays. Profiling reads only
// the host clock, so campaign traces and verdicts are unchanged by it.
//
// --depletion switches the generator into energy-exhaustion mode: a few
// cells' leaders get finite batteries, the detector runs with proactive
// handoff, and campaigns additionally assert the depletion invariants
// (exactly-once deaths, no post-mortem frames, handoff before death).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/profiler.h"
#include "sim/chaos_soak.h"

namespace {

/// Writes `content` to `path`; false (with a message) if that failed.
bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "wsn-chaos: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

void report(const wsn::sim::ChaosCampaignResult& res,
            const wsn::sim::ChaosSoakConfig& cfg, bool verbose) {
  const bool corruption = cfg.corruption;
  const bool membership = cfg.membership;
  if (membership) {
    std::printf(
        "campaign %2zu  topo=%s  seed=%llu  events=%zu  corruptions=%zu  "
        "adoptions=%zu  binds=%zu  rejects=%llu  reconverge=%.2f  %s\n",
        res.index, res.topology.c_str(),
        static_cast<unsigned long long>(res.seed), res.events, res.corruptions,
        res.adoptions, res.adopt_binds,
        static_cast<unsigned long long>(res.seeds_rejected),
        res.max_reconverge_latency, res.ok() ? "PASS" : "FAIL");
  } else if (corruption) {
    std::printf(
        "campaign %2zu  topo=%s  seed=%llu  events=%zu  corruptions=%zu  "
        "claims=%zu  reconverge=%.2f  %s\n",
        res.index, res.topology.c_str(),
        static_cast<unsigned long long>(res.seed), res.events, res.corruptions,
        res.claims, res.max_reconverge_latency, res.ok() ? "PASS" : "FAIL");
  } else {
    std::printf(
        "campaign %2zu  topo=%s  seed=%llu  events=%zu  claims=%zu  "
        "leader_crashes=%zu  depletions=%zu  handoffs=%zu  max_latency=%.2f  "
        "%s\n",
        res.index, res.topology.c_str(),
        static_cast<unsigned long long>(res.seed), res.events, res.claims,
        res.leader_crashes, res.depletions, res.planned_handoffs,
        res.max_detection_latency, res.ok() ? "PASS" : "FAIL");
  }
  if (verbose) {
    for (std::size_t r = 0; r < res.rounds.size(); ++r) {
      const wsn::core::PartialResult& p = res.rounds[r];
      std::printf("  round %zu: sum %.0f from %zu/%zu contributors (%s)\n",
                  r + 1, p.value, p.contributors.size(), p.expected.size(),
                  p.complete()       ? "complete"
                  : p.deadline_hit ? "deadline hit"
                                   : "partial");
    }
    for (const auto& [name, value] : res.counters) {
      std::printf("  %s=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  if (verbose || !res.ok()) {
    for (const std::string& f : res.findings) {
      std::printf("  FINDING: %s\n", f.c_str());
    }
  }
}

/// Writes a failing campaign's plan to `out_dir`, created if missing, and
/// replays the campaign to stream its trace there (the soak keeps none).
/// Lists only the artifacts actually written. Returns the replay.
wsn::sim::ChaosCampaignResult save_artifacts(
    const wsn::sim::ChaosCampaignResult& res,
    const wsn::sim::ChaosSoakConfig& cfg, const std::string& out_dir) {
  const std::string stem = out_dir + "/campaign_" + std::to_string(res.index);
  std::error_code ec;  // a failure shows as the writes below failing
  std::filesystem::create_directories(out_dir, ec);
  std::string written;
  if (write_file(stem + ".plan.json", res.plan_json)) {
    written = stem + ".plan.json";
  }
  wsn::sim::ChaosSoakConfig replay = cfg;
  replay.trace_out_dir = out_dir;
  wsn::sim::ChaosCampaignResult replayed = wsn::sim::ChaosSoak(replay).replay(
      res.index, wsn::sim::FaultPlan::from_json(res.plan_json));
  if (replayed.trace_written) {
    written += (written.empty() ? "" : ", ") + stem + "/ (wtr trace)";
  } else {
    std::fprintf(stderr, "wsn-chaos: cannot write %s/\n", stem.c_str());
  }
  std::printf("  artifacts: %s\n", written.empty() ? "none" : written.c_str());
  return replayed;
}

}  // namespace

int main(int argc, char** argv) {
  wsn::sim::ChaosSoakConfig cfg;
  std::size_t campaigns = 25;
  std::string out_dir;
  std::string plan_path;
  std::string profile_path;
  long only = -1;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wsn-chaos: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--campaigns") {
      campaigns = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--grid") {
      cfg.grid_side = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--nodes") {
      cfg.node_count = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--rounds") {
      cfg.rounds = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--budget") {
      cfg.severity_budget = std::strtod(next(), nullptr);
    } else if (arg == "--depletion") {
      cfg.depletion = true;
    } else if (arg == "--corruption") {
      cfg.corruption = true;
    } else if (arg == "--membership") {
      cfg.membership = true;
    } else if (arg == "--topology") {
      const char* name = next();
      if (!wsn::net::parse_topology(name, cfg.topology)) {
        std::fprintf(stderr,
                     "wsn-chaos: unknown topology %s "
                     "(want grid|ring|line|mesh|clique)\n",
                     name);
        return 2;
      }
    } else if (arg == "--plan") {
      plan_path = next();
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--trace-out") {
      cfg.trace_out_dir = next();
    } else if (arg == "--only") {
      only = std::strtol(next(), nullptr, 10);
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "wsn-chaos: unknown argument %s\n"
                   "usage: wsn-chaos [--campaigns N] [--seed S] [--grid N] "
                   "[--nodes N] [--rounds N] [--budget X] [--depletion] "
                   "[--corruption] [--membership] "
                   "[--topology grid|ring|line|mesh|clique] "
                   "[--plan FILE] [--out DIR] [--only K] [--trace-out DIR] "
                   "[--profile PATH] [--verbose]\n",
                   arg.c_str());
      return 2;
    }
  }

  std::optional<wsn::sim::FaultPlan> plan;
  if (!plan_path.empty()) {
    std::ifstream in(plan_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read plan %s\n", plan_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      plan = wsn::sim::FaultPlan::from_json(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (!profile_path.empty()) {
    wsn::obs::profiler().arm();
  }

  const wsn::sim::ChaosSoak soak(cfg);
  std::printf("chaos soak: topology %s, grid %zux%zu, %zu nodes, "
              "%zu campaigns, seed %llu, detection bound %.1f%s\n",
              wsn::net::to_string(cfg.topology), cfg.grid_side, cfg.grid_side,
              cfg.node_count, campaigns,
              static_cast<unsigned long long>(cfg.seed),
              soak.detection_bound(),
              cfg.membership   ? " (membership mode)"
              : cfg.corruption ? " (corruption mode)"
                               : "");
  if (plan) {
    std::printf("replaying %s (%zu events)\n", plan_path.c_str(),
                plan->events.size());
  }

  // Per-campaign worst latencies, for the percentile summary: detection
  // latency normally, re-convergence latency in corruption/membership mode.
  const double hist_hi = 4.0 * soak.detection_bound();
  wsn::obs::Histogram latencies(0.0, hist_hi, 64);
  std::size_t failed = 0;
  std::size_t adoptions = 0;
  std::size_t adopt_binds = 0;
  unsigned long long seeds_rejected = 0;
  std::uint64_t sim_events = 0;
  double sim_time = 0.0;
  const auto take = [&](const wsn::sim::ChaosCampaignResult& res) {
    report(res, cfg, verbose);
    adoptions += res.adoptions;
    adopt_binds += res.adopt_binds;
    seeds_rejected += res.seeds_rejected;
    sim_events += res.sim_events;
    sim_time += res.sim_time;
    if (!res.ok()) {
      ++failed;
      if (!out_dir.empty()) {
        const wsn::sim::ChaosCampaignResult replay =
            save_artifacts(res, cfg, out_dir);
        sim_events += replay.sim_events;
        sim_time += replay.sim_time;
      }
    }
    const double lat = cfg.corruption || cfg.membership
                           ? res.max_reconverge_latency
                           : res.max_detection_latency;
    if (lat > 0.0) latencies.add(lat);
  };
  const auto run = [&](std::size_t k) {
    return plan ? soak.replay(k, *plan) : soak.run_campaign(k);
  };
  try {
    if (only >= 0) {
      take(run(static_cast<std::size_t>(only)));
    } else {
      for (std::size_t k = 0; k < campaigns; ++k) take(run(k));
    }
  } catch (const std::exception& e) {
    // A given plan that targets something outside the stack.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (latencies.count() > 0) {
    std::printf("%s latency over %llu campaign(s): p50=%.2f p90=%.2f "
                "p99=%.2f max=%.2f\n",
                cfg.corruption || cfg.membership ? "reconverge" : "detection",
                static_cast<unsigned long long>(latencies.count()),
                latencies.p50(), latencies.p90(), latencies.p99(),
                latencies.max());
  }
  if (cfg.membership) {
    std::printf("membership: %zu adoption(s), %zu proxy bind(s), "
                "%llu seed(s) rejected\n",
                adoptions, adopt_binds, seeds_rejected);
  }
  bool profile_written = true;
  if (!profile_path.empty()) {
    wsn::obs::profiler().disarm();
    wsn::obs::profiler().note_sim(sim_time, sim_events);
    profile_written =
        write_file(profile_path, wsn::obs::profiler().to_json() + "\n");
    if (profile_written) {
      std::printf("perf profile: %s (read with wsn-inspect perf)\n",
                  profile_path.c_str());
    }
  }
  // A failing campaign's artifacts are written only on the way to exit 1.
  if (failed != 0) {
    std::printf("%zu campaign(s) FAILED\n", failed);
    return 1;
  }
  std::printf("all campaigns passed\n");
  return profile_written ? 0 : 1;
}
