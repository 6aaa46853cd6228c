// E5 (Section 2 design flow): "the end user could decide if a divide and
// conquer approach is better than a centralized approach if, say, total
// latency of one round of the application is to be minimized."
//
// Runs both algorithms on the virtual architecture across grid sizes and
// reports total energy, latency, hottest-node energy, and energy balance -
// the decision data the methodology says the virtual architecture provides.
#include <cstdio>

#include "analysis/analytical.h"
#include "analysis/table.h"
#include "app/centralized.h"
#include "app/field.h"
#include "app/topographic.h"
#include "bench/bench_common.h"
#include "core/virtual_network.h"

int main(int argc, char** argv) {
  using namespace wsn;
  bench::print_header(
      "E5 / Sec 2", "Divide-and-conquer vs centralized collection",
      "in-network merging wins on total energy at scale; the crossover and "
      "hot-spot behavior come from the cost model");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  analysis::Table table({"side", "N", "algo", "energy", "latency", "max node E",
                         "balance(cv)", "msgs"});
  for (std::size_t side : {4u, 8u, 16u, 32u}) {
    sim::Rng field_rng(side);
    const app::FeatureGrid grid = app::threshold_sample(
        app::value_noise_field(side * 13), side, 0.55);

    {
      sim::Simulator sim(1);
      core::VirtualNetwork vnet(sim, core::GridTopology(side),
                                core::uniform_cost_model());
      const auto outcome = app::run_topographic_query(vnet, grid);
      const auto e = vnet.ledger().report();
      table.row({analysis::Table::num(side), analysis::Table::num(side * side),
                 "quad-tree", analysis::Table::num(e.total, 0),
                 analysis::Table::num(outcome.round.finished_at, 1),
                 analysis::Table::num(e.max, 1), analysis::Table::num(e.cv, 2),
                 analysis::Table::num(outcome.round.messages_sent)});
      json.row("dnc_vs_centralized",
               {{"side", static_cast<std::uint64_t>(side)},
                {"algo", "quad-tree"},
                {"energy", e.total},
                {"latency", outcome.round.finished_at},
                {"max_node_energy", e.max},
                {"cv", e.cv},
                {"messages",
                 static_cast<std::uint64_t>(outcome.round.messages_sent)}});
    }
    {
      sim::Simulator sim(2);
      core::VirtualNetwork vnet(sim, core::GridTopology(side),
                                core::uniform_cost_model());
      const auto outcome = app::run_centralized_query(vnet, grid);
      const auto e = vnet.ledger().report();
      table.row({analysis::Table::num(side), analysis::Table::num(side * side),
                 "centralized", analysis::Table::num(e.total, 0),
                 analysis::Table::num(outcome.finished_at, 1),
                 analysis::Table::num(e.max, 1), analysis::Table::num(e.cv, 2),
                 analysis::Table::num(outcome.messages)});
      json.row("dnc_vs_centralized",
               {{"side", static_cast<std::uint64_t>(side)},
                {"algo", "centralized"},
                {"energy", e.total},
                {"latency", outcome.finished_at},
                {"max_node_energy", e.max},
                {"cv", e.cv},
                {"messages", static_cast<std::uint64_t>(outcome.messages)}});
    }
  }
  std::printf("%s\n", table.str().c_str());

  // Analytical crossover: communication energy of D&C is ~4m^2 vs the
  // centralized 2m^3; the ratio grows linearly with m.
  analysis::Table ratio({"side", "pred D&C energy", "pred central energy",
                         "ratio central/D&C"});
  for (std::size_t side : {4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto d = analysis::predict_quadtree(side, core::uniform_cost_model());
    const auto c =
        analysis::predict_centralized(side, core::uniform_cost_model());
    ratio.row({analysis::Table::num(side),
               analysis::Table::num(d.total_energy, 0),
               analysis::Table::num(c.total_energy, 0),
               analysis::Table::num(c.total_energy / d.total_energy, 2)});
  }
  std::printf("%s\n", ratio.str().c_str());
  std::printf(
      "Check: quad-tree total energy grows ~N while centralized grows\n"
      "~N^1.5, so the ratio grows ~sqrt(N); the centralized sink is the\n"
      "hottest node by a wide margin (poor energy balance), matching the\n"
      "paper's motivation for in-network processing. Centralized latency\n"
      "is dominated by the sink's whole-grid labeling under the uniform\n"
      "cost model.\n");
  return 0;
}
