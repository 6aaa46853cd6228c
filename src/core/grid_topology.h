// The virtual network model: an oriented, two-dimensional grid of points of
// coverage (PoCs), as defined in Section 3.2 of the paper.
//
// Row 0 is the north edge and column 0 the west edge; the four directions of
// the oriented grid are the DIR set of Section 5.1.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace wsn::core {

/// Compass directions of the oriented grid (Section 5.1's DIR).
enum class Direction : std::uint8_t { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };

inline constexpr std::array<Direction, 4> kAllDirections = {
    Direction::kNorth, Direction::kEast, Direction::kSouth, Direction::kWest};

constexpr Direction opposite(Direction d) {
  switch (d) {
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kEast: return Direction::kWest;
    case Direction::kSouth: return Direction::kNorth;
    case Direction::kWest: return Direction::kEast;
  }
  return Direction::kNorth;
}

inline const char* to_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
  }
  return "?";
}

/// Grid coordinate (row, col); row grows southward, col grows eastward.
struct GridCoord {
  std::int32_t row = 0;
  std::int32_t col = 0;

  friend bool operator==(const GridCoord&, const GridCoord&) = default;
  friend auto operator<=>(const GridCoord&, const GridCoord&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const GridCoord& c) {
  return os << '(' << c.row << ',' << c.col << ')';
}

/// Manhattan hop distance, the virtual architecture's communication metric:
/// "the latency and energy of transmitting a data packet ... is proportional
/// to the minimum number of hops separating them in the virtual network
/// graph, assuming shortest path routing" (Section 4.2).
constexpr std::uint32_t manhattan(const GridCoord& a, const GridCoord& b) {
  const auto dr = a.row > b.row ? a.row - b.row : b.row - a.row;
  const auto dc = a.col > b.col ? a.col - b.col : b.col - a.col;
  return static_cast<std::uint32_t>(dr + dc);
}

/// The sqrt(N) x sqrt(N) oriented grid G_V.
class GridTopology {
 public:
  /// Creates a `side` x `side` grid; `side` must be >= 1.
  explicit GridTopology(std::size_t side) : side_(side) {
    if (side == 0) throw std::invalid_argument("GridTopology: side must be >= 1");
  }

  std::size_t side() const { return side_; }
  std::size_t node_count() const { return side_ * side_; }

  bool contains(const GridCoord& c) const {
    return c.row >= 0 && c.col >= 0 &&
           c.row < static_cast<std::int32_t>(side_) &&
           c.col < static_cast<std::int32_t>(side_);
  }

  /// Row-major linear index of `c`.
  std::size_t index_of(const GridCoord& c) const {
    return static_cast<std::size_t>(c.row) * side_ +
           static_cast<std::size_t>(c.col);
  }

  GridCoord coord_of(std::size_t index) const {
    return {static_cast<std::int32_t>(index / side_),
            static_cast<std::int32_t>(index % side_)};
  }

  /// Grid neighbor in direction `d`, or nullopt at the boundary.
  std::optional<GridCoord> neighbor(const GridCoord& c, Direction d) const {
    GridCoord n = step(c, d);
    if (!contains(n)) return std::nullopt;
    return n;
  }

  /// The coordinate one step in direction `d` (may be outside the grid).
  static constexpr GridCoord step(const GridCoord& c, Direction d) {
    switch (d) {
      case Direction::kNorth: return {c.row - 1, c.col};
      case Direction::kEast: return {c.row, c.col + 1};
      case Direction::kSouth: return {c.row + 1, c.col};
      case Direction::kWest: return {c.row, c.col - 1};
    }
    return c;
  }

  /// Dimension-order (column-first, then row) shortest path from `a` to `b`,
  /// inclusive of both endpoints. Length is manhattan(a,b)+1.
  std::vector<GridCoord> route(const GridCoord& a, const GridCoord& b) const;

  /// Calls `visit(c)` for each coordinate of route(a, b), in path order,
  /// without building the path. Does not check that `a` and `b` lie on the
  /// grid.
  template <typename Visit>
  static void walk_route(GridCoord a, const GridCoord& b, Visit&& visit) {
    visit(a);
    while (a.col != b.col) {
      a.col += a.col < b.col ? 1 : -1;
      visit(a);
    }
    while (a.row != b.row) {
      a.row += a.row < b.row ? 1 : -1;
      visit(a);
    }
  }

  /// All coordinates in row-major order.
  std::vector<GridCoord> all_coords() const;

  /// True iff `side` is a power of two (required for the quad-tree
  /// decomposition of the case study).
  static constexpr bool is_power_of_two(std::size_t v) {
    return v != 0 && (v & (v - 1)) == 0;
  }

 private:
  std::size_t side_;
};

/// Morton (Z-order) index of a coordinate: the labeling used in Figures 2-3
/// of the paper, where blocks of four siblings occupy contiguous index
/// ranges at every level of the quad-tree.
std::uint64_t morton_index(const GridCoord& c);

/// Inverse of morton_index.
GridCoord morton_coord(std::uint64_t index);

}  // namespace wsn::core
