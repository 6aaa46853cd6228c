// E24 (robustness; self-stabilizing re-convergence): after adversarial
// state corruption — scrambled epochs, repointed or self-crowned leader
// beliefs, shuffled route tables, poisoned leases — the failure detector's
// audit rounds must drive every cell back to a single correct leader
// within the analytic stabilization bound. This bench sweeps corruption
// severity (strikes per campaign) against deployment topology (grid from
// the paper, ring and mesh from the PraSLE diversification) and reports,
// per cell of the sweep, the worst corruption-to-quiet latency, the same
// expressed in audit rounds, the elections corruption forced, and the
// total trace events (the message-cost proxy). Every campaign runs the
// full chaos oracle including the self-stabilization invariant; `failed`
// must be 0 in every row for the other columns to mean anything.
#include <cstdio>

#include "analysis/table.h"
#include "bench/bench_common.h"
#include "sim/chaos_soak.h"

namespace {

using namespace wsn;

constexpr std::size_t kCampaigns = 2;
constexpr std::uint64_t kSeed = 20260808;

struct RunResult {
  std::size_t failed = 0;
  std::size_t corruptions = 0;
  std::size_t claims = 0;
  std::uint64_t events = 0;
  double max_reconverge = 0.0;  // worst corruption-to-quiet latency
  double rounds = 0.0;          // the same, in audit periods
  double bound = 0.0;           // analytic stabilization bound
};

RunResult run(net::TopologyKind topo, std::size_t severity) {
  sim::ChaosSoakConfig cfg;
  cfg.topology = topo;
  cfg.corruption = true;
  cfg.corruption_events = severity;
  cfg.seed = kSeed;
  const sim::ChaosSoak soak(cfg);

  RunResult out{};
  out.bound = 2.5 * cfg.detector.lease_duration +
              1.5 * cfg.detector.election_timeout +
              sim::kSoakAuditPeriod + 10.0;
  for (std::size_t k = 0; k < kCampaigns; ++k) {
    const sim::ChaosCampaignResult res = soak.run_campaign(k);
    if (!res.ok()) ++out.failed;
    out.corruptions += res.corruptions;
    out.claims += res.claims;
    out.events += res.events;
    out.max_reconverge =
        std::max(out.max_reconverge, res.max_reconverge_latency);
  }
  out.rounds = out.max_reconverge / sim::kSoakAuditPeriod;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E24 / robustness",
      "self-stabilizing re-convergence vs corruption severity and topology",
      "from any reachable corrupted soft state the detector re-converges to "
      "one correct leader per cell within the analytic stabilization bound, "
      "on grid, ring, and mesh deployments alike");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  const net::TopologyKind topologies[] = {net::TopologyKind::kGrid,
                                          net::TopologyKind::kRing,
                                          net::TopologyKind::kMesh};
  const std::size_t severities[] = {1, 4};
  analysis::Table table({"topology", "severity", "corruptions", "claims",
                         "reconverge", "rounds", "bound", "events", "failed"});
  for (const net::TopologyKind topo : topologies) {
    for (const std::size_t severity : severities) {
      const RunResult r = run(topo, severity);
      table.row({net::to_string(topo), analysis::Table::num(severity),
                 analysis::Table::num(r.corruptions),
                 analysis::Table::num(r.claims),
                 analysis::Table::num(r.max_reconverge, 2),
                 analysis::Table::num(r.rounds, 2),
                 analysis::Table::num(r.bound, 1),
                 analysis::Table::num(r.events),
                 analysis::Table::num(r.failed)});
      json.row("convergence",
               {{"topology", std::string(net::to_string(topo))},
                {"severity", static_cast<std::uint64_t>(severity)},
                {"corruptions", static_cast<std::uint64_t>(r.corruptions)},
                {"claims", static_cast<std::uint64_t>(r.claims)},
                {"reconverge", r.max_reconverge},
                {"rounds", r.rounds},
                {"bound", r.bound},
                {"events", r.events},
                {"failed", static_cast<std::uint64_t>(r.failed)}});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: failed is 0 in every row (each campaign passed the full chaos\n"
      "oracle including self-stabilization and end-state agreement); every\n"
      "reconverge latency sits under the bound; higher severity costs more\n"
      "audit rounds and elections but never convergence itself.\n");
  return 0;
}
