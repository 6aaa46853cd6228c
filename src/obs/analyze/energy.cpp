#include "obs/analyze/energy.h"

#include <cmath>

#include "core/groups.h"
#include "core/grid_topology.h"

namespace wsn::obs::analyze {

NodeEnergy& LayerEnergy::at(std::int64_t node) {
  const std::size_t slot = node < 0 ? 0 : static_cast<std::size_t>(node);
  if (slot >= nodes.size()) nodes.resize(slot + 1);
  return nodes[slot];
}

void accumulate_energy(EnergyMap& map, const TraceEvent& ev) {
  const double e = attr_num(ev, "size", 1.0);
  switch (ev.category) {
    case Category::kVirtual:
      if (ev.name == "send") {
        map.vnet.at(ev.node).tx += e;
        map.vnet.tx += e;
      } else if (ev.name == "hop") {
        // Hop 0 is the sender (already charged at the send); every later
        // hop is a relay paying both sides of the crossing. Hop events are
        // emitted in both congestion modes at send time, so the chain
        // misses no relay.
        if (attr_num(ev, "hop") >= 1.0) {
          NodeEnergy& n = map.vnet.at(ev.node);
          n.rx += e;
          n.tx += e;
          map.vnet.rx += e;
          map.vnet.tx += e;
        }
      } else if (ev.name == "deliver") {
        map.vnet.at(ev.node).rx += e;
        map.vnet.rx += e;
      }
      break;
    case Category::kLink:
      if (ev.name == "broadcast" || ev.name == "unicast") {
        map.link.at(ev.node).tx += e;
        map.link.tx += e;
      } else if (ev.name == "deliver") {
        map.link.at(ev.node).rx += e;
        map.link.rx += e;
      }
      break;
    default:
      break;  // overlay sends ride on link transmissions; no double count
  }
}

HotspotReport hotspot_report(const LayerEnergy& vnet, std::size_t side) {
  HotspotReport report;
  const std::size_t count = vnet.nodes.size();
  if (count == 0) return report;

  if (side == 0) {
    side = 1;
    while (side * side < count) ++side;
  }
  report.side = side;

  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double e = vnet.nodes[i].total();
    sum += e;
    if (e > report.hottest_energy) {
      report.hottest_energy = e;
      report.hottest_node = static_cast<std::int64_t>(i);
    }
  }
  report.mean_energy = sum / static_cast<double>(side * side);

  if (!core::GridTopology::is_power_of_two(side)) return report;

  const core::GridTopology grid(side);
  const core::GroupHierarchy groups(grid);
  auto energy_of = [&](const core::GridCoord& c) {
    const std::size_t idx = grid.index_of(c);
    return idx < count ? vnet.nodes[idx].total() : 0.0;
  };
  for (std::uint32_t level = 1; level <= groups.max_level(); ++level) {
    LevelEnergy le;
    le.level = level;
    double leader_sum = 0.0;
    for (const core::GridCoord& c : groups.leaders(level)) {
      leader_sum += energy_of(c);
      ++le.leader_count;
    }
    const std::size_t follower_count = grid.node_count() - le.leader_count;
    le.leader_mean = le.leader_count > 0
                         ? leader_sum / static_cast<double>(le.leader_count)
                         : 0.0;
    le.follower_mean =
        follower_count > 0
            ? (sum - leader_sum) / static_cast<double>(follower_count)
            : 0.0;
    report.levels.push_back(le);
  }
  return report;
}

}  // namespace wsn::obs::analyze
