// Contaminant monitoring over time: the HVAC/contaminant scenario of
// Section 3.1 run as a multi-round application. A plume drifts and widens
// across the terrain; every round the network re-samples, labels the
// contaminated regions in-network, and answers queries; per-node energy
// accumulates against a finite budget until the first node dies.
//
// Build & run:  ./examples/contaminant_plume
#include <cmath>
#include <cstdio>

#include "app/field.h"
#include "app/queries.h"
#include "app/topographic.h"
#include "core/virtual_network.h"

int main() {
  using namespace wsn;
  const std::size_t side = 16;
  const double budget = 2000.0;  // per-node energy budget

  sim::Simulator sim(11);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model());

  std::printf("round  source->reach  regions  contaminated  largest  hottest-E  first-death?\n");
  std::printf("--------------------------------------------------------------------------------\n");

  std::size_t round = 0;
  bool dead = false;
  for (double t = 0.0; t <= 1.0 && !dead; t += 0.125, ++round) {
    // The plume source creeps east and the release strengthens over time.
    const double source_u = 0.05 + 0.2 * t;
    const double reach = 0.4 + 0.8 * t;
    const app::ScalarField plume =
        app::plume_field(source_u, 0.5, 0.15, 0.07, reach);
    const app::FeatureGrid field = app::threshold_sample(plume, side, 0.22);

    const auto outcome = app::run_topographic_query(vnet, field);
    const auto largest = app::largest_region(outcome.regions);

    // Lifetime check against the accumulated ledger.
    const auto report = vnet.ledger().report();
    dead = report.max >= budget;

    std::printf("%5zu  %.2f -> %.2f    %7zu  %12llu  %7llu  %9.0f  %s\n", round,
                source_u, reach, outcome.regions.size(),
                static_cast<unsigned long long>(
                    app::total_feature_area(outcome.regions)),
                static_cast<unsigned long long>(largest ? largest->area : 0),
                report.max, dead ? "DEAD" : "-");
  }

  const auto report = vnet.ledger().report();
  std::printf("\nafter %zu rounds: total energy %.0f, hottest node %.0f "
              "(budget %.0f), balance cv %.2f\n",
              round, report.total, report.max, budget, report.cv);
  if (report.max > 0 && round > 0) {
    const double per_round = report.max / static_cast<double>(round);
    std::printf("projected lifetime at this duty cycle: %.0f rounds\n",
                budget / per_round);
  }
  return 0;
}
