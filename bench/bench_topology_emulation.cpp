// E7 (Section 5.1): topology emulation protocol efficiency claims:
//  (i)   path setup in all cells occurs in parallel,
//  (ii)  messages cross at most one cell boundary before being suppressed,
//  (iii) latency proportional to the maximum intra-cell path length.
//
// Sweeps node density and grid size; reports broadcasts per node,
// suppressed fraction, convergence time, and the max intra-cell shortest
// path it should track.
#include <algorithm>
#include <cstdio>

#include "analysis/table.h"
#include "bench/bench_common.h"
#include "emulation/physical_stack.h"

namespace {

/// Longest shortest-path (in hops) between any two nodes of the same cell,
/// maximized over cells - the quantity claim (iii) says drives latency.
double max_intra_cell_path(const wsn::emulation::PhysicalStack& stack) {
  using namespace wsn;
  double worst = 0;
  core::GridTopology grid(stack.mapper->grid_side());
  for (const core::GridCoord& cell : grid.all_coords()) {
    const auto members = stack.mapper->members(cell);
    for (net::NodeId m : members) {
      const auto dist = stack.graph->hop_distances_within(m, members);
      for (net::NodeId other : members) {
        if (dist[other] != net::NetworkGraph::kUnreachable) {
          worst = std::max(worst, static_cast<double>(dist[other]));
        }
      }
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;
  bench::print_header(
      "E7 / Sec 5.1", "Topology emulation protocol cost",
      "parallel per-cell path setup; <=1 boundary crossing per message; "
      "latency ~ max intra-cell path length");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  analysis::Table table({"grid", "nodes", "node/cell", "bcast/node",
                         "suppressed%", "converged@", "max cell path",
                         "t/path"});
  for (std::size_t grid_side : {2u, 4u, 8u}) {
    for (std::size_t per_cell : {6u, 12u, 24u}) {
      const std::size_t nodes = grid_side * grid_side * per_cell;
      double wall_ms = 0.0;
      const auto stack_ptr = [&] {
        obs::ScopedTimer timer(&wall_ms);
        return std::make_unique<emulation::PhysicalStack>(
            grid_side, nodes, 1.3, 1000 + grid_side * 10 + per_cell);
      }();
      const auto& stack = *stack_ptr;
      if (!stack.healthy()) continue;
      const auto& r = stack.emulation_result;
      const double path = max_intra_cell_path(stack);
      json.row("topology_emulation",
               {{"grid_side", static_cast<std::uint64_t>(grid_side)},
                {"nodes", static_cast<std::uint64_t>(nodes)},
                {"broadcasts", r.broadcasts},
                {"suppressed", r.suppressed},
                {"deliveries", r.deliveries},
                {"converged_at", r.converged_at},
                {"max_cell_path", path},
                {"wall_ms", wall_ms}});
      table.row(
          {analysis::Table::num(grid_side) + "x" + analysis::Table::num(grid_side),
           analysis::Table::num(nodes),
           analysis::Table::num(per_cell),
           analysis::Table::num(static_cast<double>(r.broadcasts) /
                                    static_cast<double>(nodes),
                                2),
           analysis::Table::num(100.0 * static_cast<double>(r.suppressed) /
                                    static_cast<double>(r.deliveries),
                                1),
           analysis::Table::num(r.converged_at, 1),
           analysis::Table::num(path, 0),
           analysis::Table::num(r.converged_at / std::max(path, 1.0), 2)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check (i): broadcasts per node stay O(1) as the number of cells\n"
      "grows with fixed density - setup is parallel across cells, not\n"
      "sequential. Check (ii): the suppressed fraction accounts for every\n"
      "foreign-cell reception; no table information propagates further\n"
      "(asserted by the protocol's audit and the routing-chain tests).\n"
      "Check (iii): convergence time divided by the max intra-cell path\n"
      "length (t/path) is a small constant across configurations.\n");
  return 0;
}
