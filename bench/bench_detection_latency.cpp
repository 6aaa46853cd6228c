// E20 (robustness; Section 5 runtime hardening): the distributed failure
// detector trades heartbeat energy for detection speed. This bench sweeps
// the (heartbeat_period, lease_duration) pair and reports, per config, the
// steady-state heartbeat energy overhead rate (ledger energy per unit time
// with no faults and no workload) and the crash-to-claim latency when a
// cell leader dies — measured twice, against different cells, to show the
// latency is a property of the lease timing, not the victim. The analytic
// worst-case bound (lease + 1.5*election stagger + slack) is printed next
// to the measurement; all measured latencies must sit below it.
#include <cstdio>

#include "analysis/table.h"
#include "bench/bench_common.h"
#include "emulation/failure_detector.h"
#include "emulation/physical_stack.h"

namespace {

using namespace wsn;

constexpr std::size_t kSide = 4;
constexpr std::size_t kNodes = 60;
constexpr double kRange = 1.3;
// Seed 7: every cell is populated and the victim cells below have >= 4
// members, so a re-election always has candidates.
constexpr std::uint64_t kSeed = 7;
constexpr double kIdleWindow = 100.0;

struct Config {
  double heartbeat;
  double lease;
};

struct RunResult {
  double overhead_rate;   // energy per unit time, faults-free steady state
  double latency[2];      // crash -> committed claim, two victim cells
  double bound;           // analytic worst case for this config
  std::uint64_t beats;    // fd.beat counter over the whole run
  std::size_t claims;
};

RunResult run(const Config& c) {
  emulation::PhysicalStack stack(kSide, kNodes, kRange, kSeed);
  if (!stack.healthy()) {
    std::fprintf(stderr, "stack unhealthy at seed %llu\n",
                 static_cast<unsigned long long>(kSeed));
    std::exit(1);
  }
  stack.enable_arq();

  emulation::FailureDetectorConfig fd_cfg;
  fd_cfg.heartbeat_period = c.heartbeat;
  fd_cfg.lease_duration = c.lease;
  emulation::FailureDetector detector(*stack.overlay, fd_cfg);
  detector.start();

  RunResult out{};
  // Worst case: initial lease grant (1.5x), one electing-grace watchdog
  // deferral, staggered election close (1.5x timeout), propagation slack.
  out.bound = 1.5 * fd_cfg.lease_duration + fd_cfg.lease_duration +
              1.5 * fd_cfg.election_timeout + 10.0;

  // Phase 1: steady state. No faults, no workload — everything the ledger
  // accumulates is heartbeat/uplease traffic (and its ARQ acks).
  const double t0 = stack.sim.now();
  const double e0 = stack.ledger->total();
  stack.sim.run_until(t0 + kIdleWindow);
  out.overhead_rate = (stack.ledger->total() - e0) / kIdleWindow;

  // Phase 2: crash two cell leaders, one after the other, and time each
  // committed claim. Sequential so the second election runs on a fabric
  // already reshaped by the first — the common case in long soaks.
  const core::GridCoord victims[2] = {{1, 1}, {3, 2}};
  for (int v = 0; v < 2; ++v) {
    const net::NodeId leader = stack.overlay->bound_node(victims[v]);
    const double crash_at = stack.sim.now();
    stack.link->set_down(leader, true);
    stack.sim.run_until(crash_at + out.bound);
    if (detector.claims().size() == static_cast<std::size_t>(v + 1)) {
      out.latency[v] = detector.claims().back().at - crash_at;
    } else {
      out.latency[v] = -1.0;  // missed detection: visible in the table
    }
  }

  out.beats = detector.counters().get("fd.beat");
  out.claims = detector.claims().size();
  detector.stop();
  stack.sim.run();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E20 / robustness", "failure detection latency vs heartbeat overhead",
      "shorter leases detect leader crashes sooner but spend proportionally "
      "more energy on heartbeats; all latencies sit under the analytic "
      "lease + election bound");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  const Config configs[] = {{2.5, 8.0}, {5.0, 16.0}, {10.0, 32.0}};
  analysis::Table table({"heartbeat", "lease", "overhead_rate", "latency_1",
                         "latency_2", "bound", "claims", "beats"});
  for (const Config& c : configs) {
    const RunResult r = run(c);
    table.row({analysis::Table::num(c.heartbeat, 1),
               analysis::Table::num(c.lease, 1),
               analysis::Table::num(r.overhead_rate, 2),
               analysis::Table::num(r.latency[0], 1),
               analysis::Table::num(r.latency[1], 1),
               analysis::Table::num(r.bound, 1),
               analysis::Table::num(r.claims),
               analysis::Table::num(r.beats)});
    json.row("detection_latency",
             {{"heartbeat", c.heartbeat},
              {"lease", c.lease},
              {"overhead_rate", r.overhead_rate},
              {"latency_1", r.latency[0]},
              {"latency_2", r.latency[1]},
              {"bound", r.bound},
              {"claims", static_cast<std::uint64_t>(r.claims)},
              {"beats", r.beats}});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: halving the heartbeat period roughly halves detection latency\n"
      "and doubles the steady-state overhead rate; every measured latency\n"
      "is below the bound; each crash produced exactly one claim (claims\n"
      "column = 2). A latency of -1 would mean a missed detection.\n");
  return 0;
}
