// Fleet health monitoring: "querying the properties of sensor nodes such as
// residual energy levels is useful for resource management, dynamic
// retasking, preventive maintenance of sensor fields" (Section 3.1).
//
// Uses the collective computation primitives (sum / min / sort / rank) over
// hierarchical groups to audit residual energy after a burst of sensing
// work, then re-elects cell leaders by residual energy on a physical
// deployment (the Section 5.2 rotation rationale).
//
// Build & run:  ./examples/fleet_health
#include <cstdio>
#include <vector>

#include "app/field.h"
#include "app/topographic.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "emulation/physical_stack.h"

int main() {
  using namespace wsn;
  const std::size_t side = 8;
  const double budget = 600.0;

  // --- Phase 1: a burst of topographic work drains the virtual network ----
  sim::Simulator sim(3);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model());
  sim::Rng field_rng(5);
  for (int round = 0; round < 8; ++round) {
    const app::FeatureGrid field = app::threshold_sample(
        app::hotspot_field(2 + round % 3, field_rng), side, 0.5);
    app::run_topographic_query(vnet, field);
  }
  const auto report = vnet.ledger().report();
  std::printf("after 8 query rounds: total %.0f, hottest %.0f, cv %.2f\n\n",
              report.total, report.max, report.cv);

  // --- Phase 2: in-network residual-energy audit via collectives ----------
  const core::GroupHierarchy& groups = vnet.groups();
  const auto members = groups.members({0, 0}, groups.max_level());
  std::vector<double> residual;
  residual.reserve(members.size());
  for (const core::GridCoord& c : members) {
    residual.push_back(budget -
                       vnet.ledger().spent(static_cast<net::NodeId>(
                           vnet.grid().index_of(c))));
  }

  double fleet_min = 0;
  double fleet_sum = 0;
  core::group_reduce_deadline(vnet, members, {0, 0}, residual,
                              core::ReduceOp::kMin, 1.0, core::kNoDeadline,
                              [&](const core::PartialResult& r) {
                                fleet_min = r.value;
                              });
  sim.run();
  core::group_reduce_deadline(vnet, members, {0, 0}, residual,
                              core::ReduceOp::kSum, 1.0, core::kNoDeadline,
                              [&](const core::PartialResult& r) {
                                fleet_sum = r.value;
                              });
  sim.run();
  std::printf("fleet audit (collectives at the root leader):\n");
  std::printf("  mean residual : %.1f / %.0f\n",
              fleet_sum / static_cast<double>(members.size()), budget);
  std::printf("  worst residual: %.1f\n", fleet_min);

  std::vector<double> sorted;
  core::group_sort_deadline(vnet, members, {0, 0}, residual, 1.0,
                            core::kNoDeadline,
                            [&](std::vector<double> v, core::PartialResult) {
                              sorted = std::move(v);
                            });
  sim.run();
  std::printf("  decile cut    : %.1f (10%% of nodes are below this)\n\n",
              sorted[sorted.size() / 10]);

  // --- Phase 3: residual-energy leader re-election on a real deployment ---
  emulation::PhysicalStack stack(4, 160, 1.3, 17);
  // Drain the current leaders with some overlay work.
  const app::FeatureGrid field = app::ring_grid(4);
  app::run_topographic_query(*stack.overlay, field);

  const auto rotated = emulation::run_leader_binding(
      *stack.link, *stack.mapper, emulation::BindingMetric::kResidualEnergy);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < rotated.leaders.size(); ++i) {
    if (rotated.leaders[i] != stack.binding_result.leaders[i]) ++changed;
  }
  std::printf("physical re-election by residual energy: %zu of %zu cell "
              "leaders rotated away from drained nodes\n",
              changed, rotated.leaders.size());
  std::printf("unique leaders after rotation: %s\n",
              rotated.unique_leaders ? "yes" : "NO");
  return 0;
}
