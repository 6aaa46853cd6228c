// E8 (Section 5.2): leader binding converges to the unique node closest to
// the geographic cell center; broadcasts flood the minimum delta within each
// cell and are suppressed at boundaries.
//
// Sweeps nodes-per-cell, reporting broadcasts per node, convergence time,
// uniqueness, and agreement with the centrally computed oracle winner.
#include <cstdio>

#include "analysis/table.h"
#include "bench/bench_common.h"
#include "emulation/physical_stack.h"

int main(int argc, char** argv) {
  using namespace wsn;
  bench::print_header(
      "E8 / Sec 5.2", "Binding virtual processes to physical nodes",
      "eventually the only node with ldr=true is the one closest to the "
      "cell center; residual-energy metric supported for rotation");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  analysis::Table table({"grid", "node/cell", "bcast/node", "converged@",
                         "unique", "oracle match", "mean d(leader,center)"});
  for (std::size_t grid_side : {4u, 8u}) {
    for (std::size_t per_cell : {4u, 8u, 16u, 32u}) {
      const std::size_t nodes = grid_side * grid_side * per_cell;
      const std::uint64_t seed = 500 + grid_side * 100 + per_cell;

      // Fresh stack but we re-run the binding on a clean simulator clock by
      // constructing the stack (binding runs inside) and reading results.
      emulation::PhysicalStack stack(grid_side, nodes, 1.4, seed);
      if (!stack.healthy()) continue;
      const auto& binding = stack.binding_result;
      const auto oracle = emulation::oracle_leaders(
          *stack.mapper, emulation::BindingMetric::kDistanceToCenter,
          *stack.ledger);
      const bool match = binding.leaders == oracle;

      sim::Summary center_dist;
      core::GridTopology grid(grid_side);
      for (const core::GridCoord& cell : grid.all_coords()) {
        const net::NodeId leader = binding.leader_of(cell, grid_side);
        if (leader != net::kNoNode) {
          center_dist.add(stack.mapper->distance_to_center(leader));
        }
      }

      table.row(
          {analysis::Table::num(grid_side) + "x" + analysis::Table::num(grid_side),
           analysis::Table::num(per_cell),
           analysis::Table::num(static_cast<double>(binding.broadcasts) /
                                    static_cast<double>(nodes),
                                2),
           analysis::Table::num(binding.converged_at - stack.emulation_result
                                                           .converged_at,
                                1),
           binding.unique_leaders ? "yes" : "NO",
           match ? "yes" : "NO",
           analysis::Table::num(center_dist.mean(), 3)});
      json.row("leader_binding",
               {{"grid_side", static_cast<std::uint64_t>(grid_side)},
                {"per_cell", static_cast<std::uint64_t>(per_cell)},
                {"broadcasts", binding.broadcasts},
                {"converged_at",
                 binding.converged_at - stack.emulation_result.converged_at},
                {"unique", static_cast<std::uint64_t>(
                               binding.unique_leaders ? 1 : 0)},
                {"oracle_match", static_cast<std::uint64_t>(match ? 1 : 0)},
                {"mean_center_dist", center_dist.mean()}});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: every cell elects exactly one leader; the winner equals the\n"
      "centrally computed closest-to-center node in every configuration;\n"
      "broadcasts per node stay bounded as density grows (each node\n"
      "re-broadcasts only when it hears a strictly smaller delta). The\n"
      "cell-side-normalized distance to center shrinks as density rises -\n"
      "denser cells align network and problem geometry better.\n");
  return 0;
}
