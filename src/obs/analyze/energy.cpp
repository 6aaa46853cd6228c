#include "obs/analyze/energy.h"

#include <algorithm>
#include <bit>

namespace wsn::obs::analyze {

namespace {

/// floor(sqrt(n)), exact for every 64-bit n.
std::uint64_t isqrt(std::uint64_t n) {
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(n)));
  while (r * r > n) --r;
  while ((r + 1) * (r + 1) <= n) ++r;
  return r;
}

}  // namespace

std::optional<RadioEnergy> radio_charge(const TraceEvent& ev) {
  const double e = attr_num(ev, "size", 1.0);
  switch (ev.category) {
    case Category::kVirtual:
      if (ev.name == "send") return RadioEnergy{e, 0.0};
      // Hop 0 is the sender (already charged at the send); every later hop
      // is a relay paying both sides of the crossing. Hop events are
      // emitted in both congestion modes at send time, so the chain misses
      // no relay.
      if (ev.name == "hop" && attr_num(ev, "hop") >= 1.0) {
        return RadioEnergy{e, e};
      }
      if (ev.name == "deliver") return RadioEnergy{0.0, e};
      break;
    case Category::kLink:
      if (ev.name == "broadcast" || ev.name == "unicast") {
        return RadioEnergy{e, 0.0};
      }
      if (ev.name == "deliver") return RadioEnergy{0.0, e};
      break;
    default:
      break;  // overlay sends ride on link transmissions; no double count
  }
  return std::nullopt;
}

void LayerEnergy::charge(std::int64_t node, const RadioEnergy& e) {
  nodes[std::max<std::int64_t>(node, 0)] += e;
  tx += e.tx;
  rx += e.rx;
}

void accumulate_energy(EnergyMap& map, const TraceEvent& ev) {
  if (const std::optional<RadioEnergy> e = radio_charge(ev)) {
    (ev.category == Category::kLink ? map.link : map.vnet).charge(ev.node, *e);
  }
}

HotspotReport hotspot_report(const LayerEnergy& vnet, std::size_t side) {
  HotspotReport report;
  if (vnet.nodes.empty()) return report;

  if (side == 0) {
    // Ids are never negative here (LayerEnergy::charge folds them into 0).
    side = isqrt(static_cast<std::uint64_t>(vnet.nodes.rbegin()->first)) + 1;
  }
  report.side = side;
  const std::size_t cells = side * side;

  // A power-of-two grid has levels 1..log2(side). The level-l leaders are
  // the nodes whose row and column are both multiples of 2^l, so a node at
  // (row, col) leads every level up to the trailing zeros of row | col.
  const int levels = std::has_single_bit(side) ? std::countr_zero(side) : 0;
  std::vector<double> leader_sum(static_cast<std::size_t>(levels) + 1, 0.0);
  double sum = 0.0;
  for (const auto& [node, energy] : vnet.nodes) {
    const double e = energy.total();
    sum += e;
    if (e > report.hottest_energy) {
      report.hottest_energy = e;
      report.hottest_node = node;
    }
    const auto idx = static_cast<std::size_t>(node);
    if (idx >= cells) continue;
    const int top = std::min(std::countr_zero(idx / side | idx % side), levels);
    for (int level = 1; level <= top; ++level) leader_sum[level] += e;
  }
  report.mean_energy = sum / static_cast<double>(cells);

  for (int level = 1; level <= levels; ++level) {
    LevelEnergy le;
    le.level = static_cast<std::uint32_t>(level);
    le.leader_count = (side >> level) * (side >> level);
    const std::size_t follower_count = cells - le.leader_count;
    le.leader_mean = leader_sum[level] / static_cast<double>(le.leader_count);
    le.follower_mean =
        follower_count > 0
            ? (sum - leader_sum[level]) / static_cast<double>(follower_count)
            : 0.0;
    report.levels.push_back(le);
  }
  return report;
}

}  // namespace wsn::obs::analyze
