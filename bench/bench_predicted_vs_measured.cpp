// E9 (Section 2, the methodology's core promise): "theoretical performance
// analysis corresponds to real performance measurements."
//
// Three layers for the same topographic query:
//   predicted  - closed-form analysis on the virtual architecture,
//   virtual    - the synthesized program executed on the virtual grid,
//   physical   - the same program executed on an arbitrary deployment via
//                the Section 5 runtime (topology emulation + binding).
// Reports latency, energy, and messages per layer plus the emulation
// stretch that explains the virtual-to-physical gap.
#include <cstdio>

#include "analysis/analytical.h"
#include "analysis/table.h"
#include "app/field.h"
#include "app/topographic.h"
#include "bench/bench_common.h"
#include "core/virtual_network.h"
#include "emulation/physical_stack.h"

int main(int argc, char** argv) {
  using namespace wsn;
  bench::print_header(
      "E9 / Sec 2", "Predicted vs virtual vs physical performance",
      "the virtual architecture's analysis must track execution on the "
      "underlying network, modulo the emulation stretch");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  analysis::Table table({"side", "node/cell", "layer", "latency", "energy",
                         "msgs", "stretch"});
  for (std::size_t side : {4u, 8u}) {
    const app::FeatureGrid grid = app::full_grid(side);
    const auto predicted =
        analysis::predict_quadtree(side, core::uniform_cost_model());
    table.row({analysis::Table::num(side), "-", "predicted",
               analysis::Table::num(predicted.latency, 1),
               analysis::Table::num(predicted.total_energy, 0),
               analysis::Table::num(predicted.messages), "1.00"});
    json.row("predicted_vs_measured",
             {{"side", static_cast<std::uint64_t>(side)},
              {"layer", "predicted"},
              {"latency", predicted.latency},
              {"energy", predicted.total_energy},
              {"messages", static_cast<std::uint64_t>(predicted.messages)}});

    sim::Simulator vsim(1);
    core::VirtualNetwork vnet(vsim, core::GridTopology(side),
                              core::uniform_cost_model());
    const auto v = app::run_topographic_query(vnet, grid);
    table.row({analysis::Table::num(side), "-", "virtual",
               analysis::Table::num(v.round.finished_at, 1),
               analysis::Table::num(vnet.ledger().total(), 0),
               analysis::Table::num(v.round.messages_sent), "1.00"});
    json.row("predicted_vs_measured",
             {{"side", static_cast<std::uint64_t>(side)},
              {"layer", "virtual"},
              {"latency", v.round.finished_at},
              {"energy", vnet.ledger().total()},
              {"messages",
               static_cast<std::uint64_t>(v.round.messages_sent)}});

    for (std::size_t per_cell : {8u, 16u}) {
      double wall_ms = 0.0;
      emulation::PhysicalStack stack(side, side * side * per_cell, 1.3,
                                 42 + side + per_cell);
      if (!stack.healthy()) continue;
      const double e_before = stack.ledger->total();
      const auto p = [&] {
        obs::ScopedTimer timer(&wall_ms);
        return app::run_topographic_query(*stack.overlay, grid);
      }();
      const double stretch =
          static_cast<double>(stack.overlay->physical_hops()) /
          static_cast<double>(stack.overlay->virtual_hops());
      table.row(
          {analysis::Table::num(side), analysis::Table::num(per_cell),
           "physical",
           analysis::Table::num(p.round.finished_at - stack.setup_time, 1),
           analysis::Table::num(stack.ledger->total() - e_before, 0),
           analysis::Table::num(p.round.messages_sent),
           analysis::Table::num(stretch, 2)});
      json.row("predicted_vs_measured",
               {{"side", static_cast<std::uint64_t>(side)},
                {"per_cell", static_cast<std::uint64_t>(per_cell)},
                {"layer", "physical"},
                {"latency", p.round.finished_at - stack.setup_time},
                {"energy", stack.ledger->total() - e_before},
                {"messages",
                 static_cast<std::uint64_t>(p.round.messages_sent)},
                {"stretch", stretch},
                {"wall_ms", wall_ms}});

      // Result equivalence: all layers must label identically.
      if (p.regions.size() != v.regions.size()) {
        std::printf("RESULT MISMATCH at side %zu per_cell %zu!\n", side,
                    per_cell);
        return 1;
      }
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: predicted == virtual exactly (same cost model, same rules).\n"
      "Physical latency and energy exceed virtual by roughly the measured\n"
      "stretch factor (physical hops per virtual hop); the region results\n"
      "are identical across all three layers. This is the correspondence\n"
      "the virtual architecture promises: analyze on the clean model,\n"
      "deploy on the messy network, keep the conclusions.\n");
  return 0;
}
