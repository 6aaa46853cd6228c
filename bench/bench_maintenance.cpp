// E13 (Section 5.1 maintenance): "since new nodes can be added to the
// network or existing nodes can leave or fail, the above protocol should
// execute periodically."
//
// Kills an increasing fraction of nodes, repairs the routing tables and the
// leader binding, and reports repair cost vs a cold re-run plus the
// post-repair health of the overlay (query correctness, failed sends).
#include <cstdio>

#include "analysis/table.h"
#include "app/field.h"
#include "app/labeling.h"
#include "app/topographic.h"
#include "bench/bench_common.h"
#include "emulation/physical_stack.h"

int main(int argc, char** argv) {
  using namespace wsn;
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));
  bench::print_header(
      "E13 / Sec 5.1", "Periodic protocol re-execution under node failures",
      "repair keeps verified entries and re-learns only what failures "
      "broke; the rebound overlay still answers queries correctly");

  // A sparser deployment (range barely above the cell diagonal / density
  // threshold) so multi-hop table learning actually occurs and repair
  // savings are visible.
  const std::size_t grid_side = 4;
  const std::size_t nodes = 160;
  const double range = 1.05;

  analysis::Table table({"failed%", "repair bcast", "cold bcast",
                         "re-adoptions", "cold adoptions", "leaders re-elected",
                         "query ok", "failed sends"});
  for (const double fail_fraction : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    emulation::PhysicalStack stack(grid_side, nodes, range, 99);
    if (!stack.healthy()) continue;

    // Fail a random subset (deterministic per fraction).
    sim::Rng rng(static_cast<std::uint64_t>(fail_fraction * 1000) + 1);
    const auto target = static_cast<std::size_t>(
        fail_fraction * static_cast<double>(nodes));
    std::size_t killed = 0;
    while (killed < target) {
      const auto victim =
          static_cast<net::NodeId>(rng.below(stack.graph->node_count()));
      if (!stack.link->is_down(victim)) {
        stack.link->set_down(victim, true);
        ++killed;
      }
    }

    const auto repaired = emulation::run_topology_repair(
        *stack.link, *stack.mapper, stack.emulation_result.tables);
    const auto rebound = emulation::run_binding_repair(
        *stack.link, *stack.mapper, stack.binding_result);

    // Cold re-run for comparison (fresh tables, same failures).
    emulation::PhysicalStack cold(grid_side, nodes, range, 99);
    for (net::NodeId i = 0; i < cold.graph->node_count(); ++i) {
      cold.link->set_down(i, stack.link->is_down(i));
    }
    const auto cold_run =
        emulation::run_topology_emulation(*cold.link, *cold.mapper);

    std::size_t reelected = 0;
    for (std::size_t i = 0; i < rebound.leaders.size(); ++i) {
      if (rebound.leaders[i] != stack.binding_result.leaders[i]) ++reelected;
    }

    // Health check: run a query over the repaired overlay.
    emulation::OverlayNetwork overlay(*stack.link, *stack.mapper, repaired,
                                      rebound);
    sim::Rng field_rng(7);
    const app::FeatureGrid field = app::random_grid(grid_side, 0.5, field_rng);
    const auto outcome = app::run_topographic_query(overlay, field);
    const bool ok =
        outcome.regions.size() == app::label_regions(field).region_count();

    table.row({analysis::Table::num(fail_fraction * 100.0, 0),
               analysis::Table::num(repaired.broadcasts),
               analysis::Table::num(cold_run.broadcasts),
               analysis::Table::num(repaired.adoptions),
               analysis::Table::num(cold_run.adoptions),
               analysis::Table::num(reelected), ok ? "yes" : "NO",
               analysis::Table::num(overlay.failed_sends())});
    json.row("maintenance",
             {{"failed_pct", fail_fraction * 100.0},
              {"repair_broadcasts",
               static_cast<std::uint64_t>(repaired.broadcasts)},
              {"cold_broadcasts",
               static_cast<std::uint64_t>(cold_run.broadcasts)},
              {"repair_adoptions",
               static_cast<std::uint64_t>(repaired.adoptions)},
              {"cold_adoptions",
               static_cast<std::uint64_t>(cold_run.adoptions)},
              {"reelected", static_cast<std::uint64_t>(reelected)},
              {"query_ok", static_cast<std::uint64_t>(ok ? 1 : 0)},
              {"failed_sends",
               static_cast<std::uint64_t>(overlay.failed_sends())}});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: with no failures the repair re-learns nothing (verified\n"
      "entries are kept); under failures it re-adopts a fraction of what a\n"
      "cold start learns; broadcasts shrink with the live population;\n"
      "leader re-elections track dead leaders; the repaired overlay still\n"
      "labels the field correctly with no failed sends.\n");
  return 0;
}
