// Event-driven target tracking (the Section 4.1 counterpoint to the static
// task graph): a target crosses the field; only nearby nodes react; cluster
// heads hand off along the trajectory; energy stays local.
//
// Build & run:  ./examples/target_tracking
#include <cstdio>

#include "app/field.h"
#include "app/topographic.h"
#include "app/tracking.h"
#include "core/virtual_network.h"

int main() {
  using namespace wsn;
  const std::size_t side = 16;

  sim::Simulator sim(8);
  core::VirtualNetwork vnet(sim, core::GridTopology(side),
                            core::uniform_cost_model());

  const std::vector<net::Point> waypoints{
      {1.0, 14.0}, {6.0, 6.0}, {12.0, 9.0}, {14.5, 1.5}};
  const auto trajectory = app::sample_trajectory(waypoints, 24);

  app::TrackingConfig config;
  config.detection_threshold = 0.3;  // tighter clusters around the target
  const app::TrackingResult result = app::run_tracking(vnet, trajectory, config);

  std::printf("round  true (x,y)      estimate (x,y)   error  head     detectors\n");
  std::printf("--------------------------------------------------------------------\n");
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    std::printf("%5zu  (%5.2f,%5.2f)  (%5.2f,%5.2f)  %5.2f  (%2d,%2d)  %9zu\n",
                i, r.true_position.x, r.true_position.y, r.estimate.x,
                r.estimate.y, r.error, r.head.row, r.head.col, r.detectors);
  }

  std::printf("\nmean estimate error : %.3f cells over %zu rounds\n",
              result.mean_error, result.detected_rounds);
  std::printf("cluster-head handoffs: %llu\n",
              static_cast<unsigned long long>(result.head_handoffs));
  std::printf("detector messages    : %llu\n",
              static_cast<unsigned long long>(result.messages));

  // Contrast with the whole-grid topographic round: a tracking round only
  // taxes the neighborhood of the target.
  const double tracking_energy = vnet.ledger().total();
  sim::Simulator sim2(9);
  core::VirtualNetwork vnet2(sim2, core::GridTopology(side),
                             core::uniform_cost_model());
  app::run_topographic_query(vnet2, app::checkerboard_grid(side));
  std::printf("\nenergy per round: %.0f (tracking) vs %.0f (whole-grid "
              "topographic round)\n",
              tracking_energy / static_cast<double>(result.rounds.size()),
              vnet2.ledger().total());
  return 0;
}
