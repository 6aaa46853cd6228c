// Topographic mapping on a real (simulated) deployment - the paper's full
// pipeline end to end:
//
//   deploy 1,280 sensor nodes arbitrarily over a terrain
//   -> emulate the 8x8 virtual grid (Section 5.1 protocol)
//   -> bind virtual processes to physical nodes (Section 5.2 election)
//   -> run the synthesized Figure 4 program over the overlay
//   -> compare against the same program on the pristine virtual grid.
//
// Build & run:  ./examples/topographic_mapping
#include <cstdio>

#include "app/field.h"
#include "app/labeling.h"
#include "app/topographic.h"
#include "core/virtual_network.h"
#include "emulation/physical_stack.h"

int main() {
  using namespace wsn;
  const std::size_t grid_side = 8;
  const std::size_t node_count = 1280;
  const double radio_range = 1.3;

  // --- Physical deployment and runtime system (Section 5) -----------------
  // One-per-cell-plus-uniform placement (the paper's precondition), then the
  // topology emulation and leader binding protocols, run to quiescence.
  emulation::PhysicalStack stack(grid_side, node_count, radio_range, 42);
  const net::NetworkGraph& graph = *stack.graph;
  std::printf("deployment: %zu nodes, %zu radio links, connected=%s\n",
              graph.node_count(), graph.edge_count(),
              graph.connected() ? "yes" : "no");
  std::printf("cells occupied: %s, per-cell subgraphs connected: %s\n",
              stack.mapper->all_cells_occupied() ? "all" : "MISSING",
              stack.mapper->all_cells_connected() ? "all" : "NO");

  const emulation::EmulationResult& emu = stack.emulation_result;
  std::printf("\ntopology emulation: %llu broadcasts, %llu suppressed at "
              "boundaries, converged at t=%.1f\n",
              static_cast<unsigned long long>(emu.broadcasts),
              static_cast<unsigned long long>(emu.suppressed),
              emu.converged_at);
  const emulation::BindingResult& binding = stack.binding_result;
  std::printf("leader binding    : %llu broadcasts, unique leaders: %s\n",
              static_cast<unsigned long long>(binding.broadcasts),
              binding.unique_leaders ? "yes" : "NO");
  emulation::OverlayNetwork& overlay = *stack.overlay;

  // --- The application ------------------------------------------------------
  const app::FeatureGrid field = app::threshold_sample(
      app::plume_field(0.15, 0.35, 0.35), grid_side, 0.25);
  std::printf("\ncontaminant plume, thresholded at the %zux%zu PoC grid:\n%s\n",
              grid_side, grid_side, field.render().c_str());

  const double t0 = stack.sim.now();
  const auto physical = app::run_topographic_query(overlay, field);
  std::printf("physical run : %zu regions, latency %.1f, %llu messages, "
              "stretch %.2f, energy %.0f\n",
              physical.regions.size(), physical.round.finished_at - t0,
              static_cast<unsigned long long>(physical.round.messages_sent),
              static_cast<double>(overlay.physical_hops()) /
                  static_cast<double>(overlay.virtual_hops()),
              stack.ledger->total() - stack.setup_energy);

  // --- The designer's view ---------------------------------------------------
  sim::Simulator vsim(1);
  core::VirtualNetwork vnet(vsim, core::GridTopology(grid_side),
                            core::uniform_cost_model());
  const auto virt = app::run_topographic_query(vnet, field);
  std::printf("virtual run  : %zu regions, latency %.1f, %llu messages, "
              "energy %.0f\n",
              virt.regions.size(), virt.round.finished_at,
              static_cast<unsigned long long>(virt.round.messages_sent),
              vnet.ledger().total());

  const app::Labeling reference = app::label_regions(field);
  std::printf("reference CCL: %zu regions\n", reference.region_count());
  std::printf("\nAll three agree: %s\n",
              physical.regions.size() == virt.regions.size() &&
                      virt.regions.size() == reference.region_count()
                  ? "yes"
                  : "NO");
  return 0;
}
