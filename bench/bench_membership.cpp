// E25 (robustness; self-healing membership): with cell beliefs and leader
// rosters live protocol state, campaigns mix membership-targeted
// corruption strikes (defected beliefs, scrambled rosters) with vacancy
// scenarios — a whole cell crashes around one surviving follower, which
// must orphan, be adopted by the nearest reachable neighboring cell, and
// leave its vacated cell re-bound to a live proxy leader. This bench
// sweeps strike severity against deployment topology (grid, ring, mesh)
// and reports, per cell of the sweep, adoptions committed, proxy
// re-binds, the worst vacancy-to-adoption latency, the worst
// corruption-to-quiet latency, and trace-event cost. Every campaign runs
// the full chaos oracle including the membership invariants (zero dark
// cells, inverse-consistent beliefs and rosters at settle); `failed` must
// be 0 in every row for the other columns to mean anything.
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
  std::size_t adoptions = 0;
  std::size_t binds = 0;  // vacated cells re-bound to a proxy leader
  std::uint64_t events = 0;
  double max_adoption = 0.0;    // worst vacancy-to-adoption latency
  double max_reconverge = 0.0;  // worst corruption-to-quiet latency
  double bound = 0.0;           // analytic stabilization bound (membership)
};

RunResult run(net::TopologyKind topo, std::size_t severity) {
  sim::ChaosSoakConfig cfg;
  cfg.topology = topo;
  cfg.membership = true;
  cfg.membership_events = severity;
  cfg.seed = kSeed;
  const sim::ChaosSoak soak(cfg);

  RunResult out{};
  // Membership mode adds the roster-repair term: one extra audit round on
  // top of the corruption-mode bound (see stabilization_bound()).
  out.bound = 2.5 * cfg.detector.lease_duration +
              1.5 * cfg.detector.election_timeout +
              2.0 * sim::kSoakAuditPeriod + 10.0;
  for (std::size_t k = 0; k < kCampaigns; ++k) {
    const sim::ChaosCampaignResult res = soak.run_campaign(k);
    if (!res.ok()) ++out.failed;
    out.corruptions += res.corruptions;
    out.adoptions += res.adoptions;
    out.binds += res.adopt_binds;
    out.events += res.events;
    out.max_adoption = std::max(out.max_adoption, res.max_adoption_latency);
    out.max_reconverge =
        std::max(out.max_reconverge, res.max_reconverge_latency);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E25 / robustness",
      "self-healing membership: adoption and proxy re-binding vs topology",
      "after membership corruption and whole-cell vacancies the deployment "
      "heals itself — orphans are adopted, vacated cells re-bound to proxy "
      "leaders, and beliefs/rosters reconcile within the extended bound");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  const net::TopologyKind topologies[] = {net::TopologyKind::kGrid,
                                          net::TopologyKind::kRing,
                                          net::TopologyKind::kMesh};
  const std::size_t severities[] = {1, 4};
  analysis::Table table({"topology", "severity", "corruptions", "adoptions",
                         "binds", "adopt_lat", "reconverge", "bound", "events",
                         "failed"});
  for (const net::TopologyKind topo : topologies) {
    for (const std::size_t severity : severities) {
      const RunResult r = run(topo, severity);
      table.row({net::to_string(topo), analysis::Table::num(severity),
                 analysis::Table::num(r.corruptions),
                 analysis::Table::num(r.adoptions),
                 analysis::Table::num(r.binds),
                 analysis::Table::num(r.max_adoption, 2),
                 analysis::Table::num(r.max_reconverge, 2),
                 analysis::Table::num(r.bound, 1),
                 analysis::Table::num(r.events),
                 analysis::Table::num(r.failed)});
      json.row("membership",
               {{"topology", std::string(net::to_string(topo))},
                {"severity", static_cast<std::uint64_t>(severity)},
                {"corruptions", static_cast<std::uint64_t>(r.corruptions)},
                {"adoptions", static_cast<std::uint64_t>(r.adoptions)},
                {"binds", static_cast<std::uint64_t>(r.binds)},
                {"adopt_lat", r.max_adoption},
                {"reconverge", r.max_reconverge},
                {"bound", r.bound},
                {"events", r.events},
                {"failed", static_cast<std::uint64_t>(r.failed)}});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: failed is 0 in every row (each campaign passed the full chaos\n"
      "oracle including the membership invariants: zero dark cells, beliefs\n"
      "and rosters inverse-consistent at settle); every adoption and\n"
      "reconverge latency sits under the extended bound; higher severity\n"
      "costs more events but never coverage or convergence.\n");
  return 0;
}
