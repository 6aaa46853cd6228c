// E11 (Sections 2 & 7): "minimizing energy consumption of the network as a
// whole is the dominant concern" / "system wide energy performance has to be
// optimized for extending the network lifetime."
//
// Repeatedly runs the topographic query on the virtual architecture with a
// finite per-node budget and reports rounds until first node death, for the
// quad-tree vs the centralized algorithm, and for static vs rotated leader
// placement (the paper's Section 5.2 note on periodic leader rotation).
//
// E21 (robustness): the same lifetime question on the *physical* stack with
// the message-based runtime: every node gets a finite battery, depletion
// deaths flow through the DepletionMonitor, and repeated deadline reduces
// run until a round loses coverage. Measured with proactive leader handoff
// off and on (same seed, same budgets): handoff rotates leadership off
// dying leaders before their batteries die, so both rounds-to-first-death
// and rounds-to-coverage-loss must strictly improve.
#include <cstdio>
#include <memory>

#include "analysis/table.h"
#include "app/centralized.h"
#include "app/field.h"
#include "app/topographic.h"
#include "bench/bench_common.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "emulation/failure_detector.h"
#include "emulation/physical_stack.h"
#include "sim/depletion_monitor.h"
#include "taskgraph/mapping.h"

namespace {

using namespace wsn;

/// Per-round energy of the hottest virtual node for one strategy.
struct RoundCost {
  double hottest = 0;
  double total = 0;
};

RoundCost one_round_quadtree(std::size_t side, const app::FeatureGrid& grid,
                             core::LeaderPlacement placement) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model(), placement);
  app::run_topographic_query(vnet, grid);
  const auto r = vnet.ledger().report();
  return {r.max, r.total};
}

RoundCost one_round_centralized(std::size_t side, const app::FeatureGrid& grid) {
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model());
  app::run_centralized_query(vnet, grid);
  const auto r = vnet.ledger().report();
  return {r.max, r.total};
}

/// Rotated variant: alternate the leader placement corner each round, which
/// spreads the interior-task load over four distinct node sets.
double rotated_lifetime(std::size_t side, const app::FeatureGrid& grid,
                        double budget) {
  // Energy per round at each placement, per node, accumulated until some
  // node exceeds the budget.
  const std::array<core::LeaderPlacement, 3> placements = {
      core::LeaderPlacement::kNorthWest, core::LeaderPlacement::kBlockCenter,
      core::LeaderPlacement::kSouthEast};
  std::vector<std::vector<double>> per_node;
  for (const auto placement : placements) {
    sim::Simulator sim(1);
    core::VirtualNetwork vnet(sim, core::GridTopology(side),
                              core::uniform_cost_model(), placement);
    app::run_topographic_query(vnet, grid);
    std::vector<double> spent(vnet.grid().node_count());
    for (std::size_t i = 0; i < spent.size(); ++i) {
      spent[i] = vnet.ledger().spent(static_cast<net::NodeId>(i));
    }
    per_node.push_back(std::move(spent));
  }
  std::vector<double> acc(per_node[0].size(), 0.0);
  double rounds = 0;
  while (true) {
    const auto& cost = per_node[static_cast<std::size_t>(rounds) %
                                placements.size()];
    for (std::size_t i = 0; i < acc.size(); ++i) {
      if (acc[i] + cost[i] > budget) return rounds;
    }
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += cost[i];
    ++rounds;
    if (rounds > 1e7) return rounds;
  }
}

// ---- E21: physical-stack lifetime with and without proactive handoff ----

// Same deployment as the detection-latency bench (every cell populated,
// victim cells have candidates).
constexpr std::size_t kE21Side = 4;
constexpr std::size_t kE21Nodes = 60;
constexpr double kE21Range = 1.3;
constexpr std::uint64_t kE21Seed = 7;
/// Energy each *bound leader* has left once the budgets land (per-node
/// absolute budget = setup spend + headroom, so setup traffic is already
/// paid for). Only the initially-bound leaders get finite batteries —
/// leadership is the asymmetric energy burden (beats, routed reduce
/// traffic, ARQ acks all funnel through leaders), so the experiment
/// isolates exactly the load that handoff is designed to move. Both arms
/// use the identical budget assignment.
constexpr double kE21Headroom = 240.0;
/// Reserve when handoff is on: must cover the succession's own flood storm
/// (~25 units), the per-heartbeat residual-check slip, and the drain until
/// the claim commits (see chaos_soak.cpp for the derivation).
constexpr double kE21LowWater = 96.0;
/// Short rounds back-to-back: the gap between rounds is about one
/// detection bound, so an *unplanned* leader death blanks a round before
/// the election repairs it, while a planned handoff has zero leaderless
/// time and keeps coverage.
constexpr double kE21Deadline = 60.0;
constexpr std::size_t kE21MaxRounds = 12;

/// True iff the cell's member set stays radio-connected once `removed`
/// leaves — the same succession-eligibility guard the chaos generator
/// uses (ChaosSoak). A leader whose departure would empty or disconnect
/// its cell loses coverage under *any* protocol, so budgeting it cannot
/// discriminate between the two arms.
bool survivable_without(const net::NetworkGraph& graph,
                        std::span<const net::NodeId> members,
                        net::NodeId removed) {
  std::vector<net::NodeId> alive;
  for (const net::NodeId m : members) {
    if (m != removed) alive.push_back(m);
  }
  if (alive.empty()) return false;
  std::vector<net::NodeId> frontier{alive.front()};
  std::vector<bool> seen(graph.node_count(), false);
  seen[alive.front()] = true;
  std::size_t reached = 1;
  auto is_alive = [&](net::NodeId v) {
    return std::find(alive.begin(), alive.end(), v) != alive.end();
  };
  while (!frontier.empty()) {
    const net::NodeId u = frontier.back();
    frontier.pop_back();
    for (const net::NodeId v : graph.neighbors(u)) {
      if (seen[v] || !is_alive(v)) continue;
      seen[v] = true;
      ++reached;
      frontier.push_back(v);
    }
  }
  return reached == alive.size();
}

struct E21Result {
  std::size_t rounds_completed = 0;       // full-coverage rounds, in a row
  std::size_t rounds_to_first_death = 0;  // of those, before any battery died
  double first_death_at = -1.0;           // sim time; -1 = nobody died
  std::size_t depletions = 0;
  std::size_t planned_handoffs = 0;
  std::size_t claims = 0;
};

E21Result run_physical_lifetime(double handoff_low_water) {
  emulation::PhysicalStack stack(kE21Side, kE21Nodes, kE21Range, kE21Seed);
  if (!stack.healthy()) {
    std::fprintf(stderr, "E21 stack unhealthy at seed %llu\n",
                 static_cast<unsigned long long>(kE21Seed));
    std::exit(1);
  }
  stack.enable_arq();
  for (const core::GridCoord& cell : stack.overlay->grid().all_coords()) {
    const net::NodeId node =
        stack.binding_result.leader_of(cell, stack.overlay->grid().side());
    if (node == net::kNoNode) continue;
    const auto members = stack.mapper->members(cell);
    if (members.size() < 2) continue;
    if (!survivable_without(*stack.graph, members, node)) continue;
    stack.ledger->set_budget(node, stack.ledger->spent(node) + kE21Headroom);
  }
  sim::DepletionMonitor monitor(stack.sim, *stack.link);
  monitor.arm();

  emulation::FailureDetectorConfig fd_cfg;
  fd_cfg.handoff_low_water = handoff_low_water;
  emulation::FailureDetector detector(*stack.overlay, fd_cfg);
  detector.start();

  const std::vector<core::GridCoord> all_cells =
      stack.overlay->grid().all_coords();
  const std::vector<double> values(all_cells.size(), 1.0);
  E21Result out;
  for (std::size_t r = 0; r < kE21MaxRounds; ++r) {
    auto partial = std::make_shared<core::PartialResult>();
    auto closed = std::make_shared<bool>(false);
    const double round_start = stack.sim.now();
    core::group_reduce_deadline(
        *stack.overlay, all_cells, {0, 0}, values, core::ReduceOp::kSum, 1.0,
        kE21Deadline, [partial, closed](const core::PartialResult& p) {
          *partial = p;
          *closed = true;
        });
    stack.sim.run_until(round_start + kE21Deadline + 5.0);
    if (!*closed || !partial->complete()) break;  // coverage lost
    ++out.rounds_completed;
    if (monitor.deaths().empty()) {
      out.rounds_to_first_death = out.rounds_completed;
    }
  }
  out.depletions = monitor.deaths().size();
  if (!monitor.deaths().empty()) {
    out.first_death_at = monitor.deaths().front().at;
  }
  out.planned_handoffs = detector.planned_handoffs();
  out.claims = detector.claims().size();
  detector.stop();
  stack.sim.run();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E11 / Secs 2,7", "Network lifetime under repeated querying",
      "energy balance determines lifetime; leader rotation extends it");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  const double budget = 10000.0;
  analysis::Table table({"side", "strategy", "hottest E/round", "total E/round",
                         "lifetime (rounds)"});
  for (std::size_t side : {8u, 16u}) {
    const app::FeatureGrid grid = app::threshold_sample(
        app::value_noise_field(side * 17), side, 0.55);

    const RoundCost qt =
        one_round_quadtree(side, grid, core::LeaderPlacement::kNorthWest);
    table.row({analysis::Table::num(side), "quad-tree (NW leaders)",
               analysis::Table::num(qt.hottest, 1),
               analysis::Table::num(qt.total, 0),
               analysis::Table::num(budget / qt.hottest, 0)});

    const RoundCost qc =
        one_round_quadtree(side, grid, core::LeaderPlacement::kBlockCenter);
    table.row({analysis::Table::num(side), "quad-tree (center leaders)",
               analysis::Table::num(qc.hottest, 1),
               analysis::Table::num(qc.total, 0),
               analysis::Table::num(budget / qc.hottest, 0)});

    const double rotated = rotated_lifetime(side, grid, budget);
    table.row({analysis::Table::num(side), "quad-tree (rotating leaders)", "-",
               "-", analysis::Table::num(rotated, 0)});

    const RoundCost central = one_round_centralized(side, grid);
    table.row({analysis::Table::num(side), "centralized sink",
               analysis::Table::num(central.hottest, 1),
               analysis::Table::num(central.total, 0),
               analysis::Table::num(budget / central.hottest, 0)});

    json.row("lifetime", {{"side", static_cast<std::uint64_t>(side)},
                          {"strategy", "quadtree_nw"},
                          {"hottest_per_round", qt.hottest},
                          {"total_per_round", qt.total},
                          {"lifetime_rounds", budget / qt.hottest}});
    json.row("lifetime", {{"side", static_cast<std::uint64_t>(side)},
                          {"strategy", "quadtree_center"},
                          {"hottest_per_round", qc.hottest},
                          {"total_per_round", qc.total},
                          {"lifetime_rounds", budget / qc.hottest}});
    json.row("lifetime", {{"side", static_cast<std::uint64_t>(side)},
                          {"strategy", "quadtree_rotating"},
                          {"lifetime_rounds", rotated}});
    json.row("lifetime", {{"side", static_cast<std::uint64_t>(side)},
                          {"strategy", "centralized"},
                          {"hottest_per_round", central.hottest},
                          {"total_per_round", central.total},
                          {"lifetime_rounds", budget / central.hottest}});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: the centralized sink dies earliest (every status funnels\n"
      "through it); the quad-tree spreads load but its root-area leaders\n"
      "still dominate; rotating the leader placement across rounds spreads\n"
      "the interior-task load over disjoint node sets and extends lifetime,\n"
      "exactly the rotation rationale of Section 5.2.\n\n");

  bench::print_header(
      "E21 / robustness", "Physical-stack lifetime with proactive handoff",
      "handing leadership off before the battery dies extends both time to "
      "first death and time to coverage loss");
  analysis::Table t21({"handoff", "rounds (full coverage)",
                       "rounds before 1st death", "first death t", "deaths",
                       "handoffs", "claims"});
  E21Result e21[2];
  const char* labels[2] = {"off", "on"};
  for (int h = 0; h < 2; ++h) {
    e21[h] = run_physical_lifetime(h == 0 ? 0.0 : kE21LowWater);
    t21.row({labels[h], analysis::Table::num(e21[h].rounds_completed),
             analysis::Table::num(e21[h].rounds_to_first_death),
             analysis::Table::num(e21[h].first_death_at, 1),
             analysis::Table::num(e21[h].depletions),
             analysis::Table::num(e21[h].planned_handoffs),
             analysis::Table::num(e21[h].claims)});
    json.row("lifetime_physical",
             {{"handoff", labels[h]},
              {"rounds_completed",
               static_cast<std::uint64_t>(e21[h].rounds_completed)},
              {"rounds_to_first_death",
               static_cast<std::uint64_t>(e21[h].rounds_to_first_death)},
              {"first_death_at", e21[h].first_death_at},
              {"depletions", static_cast<std::uint64_t>(e21[h].depletions)},
              {"planned_handoffs",
               static_cast<std::uint64_t>(e21[h].planned_handoffs)},
              {"claims", static_cast<std::uint64_t>(e21[h].claims)}});
  }
  std::printf("%s\n", t21.str().c_str());
  std::printf(
      "Check: same seed, same budgets (each initially-bound leader starts\n"
      "the measured phase with %.0f energy; members are unconstrained).\n"
      "With handoff off the leader batteries die in office and their cells\n"
      "go leaderless for a detection bound, losing coverage; with handoff\n"
      "on, leaders abdicate at the low-water mark to their best-supplied\n"
      "member, so rounds-to-first-death and full-coverage rounds are\n"
      "strictly higher.\n",
      kE21Headroom);
  if (e21[1].rounds_completed <= e21[0].rounds_completed) {
    std::printf("WARNING: handoff did not extend coverage (on %zu <= off %zu)\n",
                e21[1].rounds_completed, e21[0].rounds_completed);
    return 1;
  }
  return 0;
}
