// Reference connected-component labeling: the ground truth every in-network
// algorithm is checked against.
//
// A homogeneous (feature) region is a maximal 4-connected set of feature
// cells. This is the classical image-component-labeling problem; the paper's
// in-network algorithm descends from Alnuweiri & Prasanna's parallel
// component labeling work (its reference [3]).
#pragma once

#include <cstdint>
#include <vector>

#include "app/feature_grid.h"
#include "core/grid_topology.h"

namespace wsn::app {

/// Axis-aligned bounding box of a region, in grid coordinates (inclusive).
struct GridBounds {
  std::int32_t row_min = 0;
  std::int32_t col_min = 0;
  std::int32_t row_max = -1;
  std::int32_t col_max = -1;

  void expand(const core::GridCoord& c) {
    if (row_max < row_min) {  // empty
      row_min = row_max = c.row;
      col_min = col_max = c.col;
      return;
    }
    row_min = std::min(row_min, c.row);
    row_max = std::max(row_max, c.row);
    col_min = std::min(col_min, c.col);
    col_max = std::max(col_max, c.col);
  }

  void merge(const GridBounds& o) {
    if (o.row_max < o.row_min) return;
    if (row_max < row_min) {
      *this = o;
      return;
    }
    row_min = std::min(row_min, o.row_min);
    row_max = std::max(row_max, o.row_max);
    col_min = std::min(col_min, o.col_min);
    col_max = std::max(col_max, o.col_max);
  }

  friend bool operator==(const GridBounds&, const GridBounds&) = default;
};

/// A labeled homogeneous region.
struct Region {
  std::uint32_t label = 0;  // 1-based; 0 is background
  std::uint64_t area = 0;
  GridBounds bounds;
};

/// Full labeling result.
struct Labeling {
  std::size_t side = 0;
  /// labels[row * side + col]; 0 = background, regions numbered from 1 in
  /// first-encounter (row-major) order.
  std::vector<std::uint32_t> labels;
  std::vector<Region> regions;

  std::uint32_t label_at(const core::GridCoord& c) const {
    return labels[static_cast<std::size_t>(c.row) * side +
                  static_cast<std::size_t>(c.col)];
  }
  std::size_t region_count() const { return regions.size(); }
};

/// Two-pass union-find connected-component labeling (4-connectivity).
Labeling label_regions(const FeatureGrid& grid);

}  // namespace wsn::app

namespace wsn::app::detail {

/// Minimal union-find used by the labeler and the boundary-merge structure.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n = 0) { reset(n); }

  void reset(std::size_t n) {
    parent_.resize(n);
    rank_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::uint32_t>(i);
  }

  std::uint32_t add() {
    parent_.push_back(static_cast<std::uint32_t>(parent_.size()));
    rank_.push_back(0);
    return parent_.back();
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Unions the sets of a and b; returns the surviving root.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return a;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace wsn::app::detail
