#include "core/grid_topology.h"

namespace wsn::core {

std::vector<GridCoord> GridTopology::route(const GridCoord& a,
                                           const GridCoord& b) const {
  if (!contains(a) || !contains(b)) {
    throw std::invalid_argument("GridTopology::route: endpoint off grid");
  }
  std::vector<GridCoord> path;
  path.reserve(manhattan(a, b) + 1);
  walk_route(a, b, [&path](const GridCoord& c) { path.push_back(c); });
  return path;
}

std::vector<GridCoord> GridTopology::all_coords() const {
  std::vector<GridCoord> out;
  out.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) out.push_back(coord_of(i));
  return out;
}

namespace {

// Spreads the low 32 bits of v so each lands in an even position.
constexpr std::uint64_t spread_bits(std::uint64_t v) {
  v &= 0xffffffffULL;
  v = (v | (v << 16)) & 0x0000ffff0000ffffULL;
  v = (v | (v << 8)) & 0x00ff00ff00ff00ffULL;
  v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  v = (v | (v << 2)) & 0x3333333333333333ULL;
  v = (v | (v << 1)) & 0x5555555555555555ULL;
  return v;
}

constexpr std::uint64_t compact_bits(std::uint64_t v) {
  v &= 0x5555555555555555ULL;
  v = (v | (v >> 1)) & 0x3333333333333333ULL;
  v = (v | (v >> 2)) & 0x0f0f0f0f0f0f0f0fULL;
  v = (v | (v >> 4)) & 0x00ff00ff00ff00ffULL;
  v = (v | (v >> 8)) & 0x0000ffff0000ffffULL;
  v = (v | (v >> 16)) & 0x00000000ffffffffULL;
  return v;
}

}  // namespace

std::uint64_t morton_index(const GridCoord& c) {
  // Column bits land in even positions, row bits in odd positions, so that
  // within every 2x2 block the order is NW, NE, SW, SE - exactly the label
  // order of Figure 3 (0 1 / 2 3 within the top-left block).
  return spread_bits(static_cast<std::uint64_t>(c.col)) |
         (spread_bits(static_cast<std::uint64_t>(c.row)) << 1);
}

GridCoord morton_coord(std::uint64_t index) {
  return {static_cast<std::int32_t>(compact_bits(index >> 1)),
          static_cast<std::int32_t>(compact_bits(index))};
}

}  // namespace wsn::core
