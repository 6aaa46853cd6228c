#include "app/boundary.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace wsn::app {
namespace {

/// Applies `fn(label)` to every distinct perimeter cell of `s` in the
/// canonical order: north edge west->east, east edge north->south (skipping
/// the NE corner already visited), south edge west->east (skipping corners
/// on the east/west columns when height > 1), west edge north->south
/// (skipping corners). Degenerate one-row / one-column extents visit each
/// cell exactly once.
template <typename Fn>
void for_each_perimeter_label(const BlockSummary& s, Fn&& fn) {
  const std::size_t w = s.width;
  const std::size_t h = s.height;
  if (h == 1) {
    for (std::size_t i = 0; i < w; ++i) fn(s.north[i]);
    return;
  }
  if (w == 1) {
    for (std::size_t i = 0; i < h; ++i) fn(s.west[i]);
    return;
  }
  for (std::size_t i = 0; i < w; ++i) fn(s.north[i]);
  for (std::size_t i = 1; i < h; ++i) fn(s.east[i]);
  for (std::size_t i = 0; i + 1 < w; ++i) fn(s.south[i]);
  for (std::size_t i = 1; i + 1 < h; ++i) fn(s.west[i]);
}

/// Renumbers perimeter labels densely (1..k, canonical encounter order) and
/// rebuilds `s.open`. The edge arrays hold raw labels; raw label l has the
/// statistics stats[l - 1]. On return relabel[l - 1] is the new label of raw
/// label l, or 0 if l is not on the perimeter.
void canonicalize(BlockSummary& s, const std::vector<RegionInfo>& stats,
                  std::vector<BoundaryLabel>& relabel) {
  relabel.assign(stats.size(), 0);
  s.open.clear();
  for_each_perimeter_label(s, [&](BoundaryLabel raw) {
    if (raw == 0 || relabel[raw - 1] != 0) return;
    s.open.push_back(stats[raw - 1]);
    relabel[raw - 1] = static_cast<BoundaryLabel>(s.open.size());
  });
  auto remap = [&relabel](BlockSummary::Edge& edge) {
    for (BoundaryLabel& l : edge) {
      if (l != 0) l = relabel[l - 1];
    }
  };
  remap(s.north);
  remap(s.south);
  remap(s.west);
  remap(s.east);
}

enum class Adjacency { kHorizontal, kVertical };

/// Determines how `a` and `b` fit together; normalizes so the returned pair
/// is (west-or-north piece, east-or-south piece). Empty when the extents are
/// not edge-adjacent.
std::optional<std::pair<Adjacency, bool>> classify(const BlockSummary& a,
                                                   const BlockSummary& b) {
  const bool same_rows = a.row0 == b.row0 && a.height == b.height;
  const bool same_cols = a.col0 == b.col0 && a.width == b.width;
  if (same_rows &&
      b.col0 == a.col0 + static_cast<std::int32_t>(a.width)) {
    return std::pair{Adjacency::kHorizontal, false};
  }
  if (same_rows &&
      a.col0 == b.col0 + static_cast<std::int32_t>(b.width)) {
    return std::pair{Adjacency::kHorizontal, true};  // b is the western piece
  }
  if (same_cols &&
      b.row0 == a.row0 + static_cast<std::int32_t>(a.height)) {
    return std::pair{Adjacency::kVertical, false};
  }
  if (same_cols &&
      a.row0 == b.row0 + static_cast<std::int32_t>(b.height)) {
    return std::pair{Adjacency::kVertical, true};  // b is the northern piece
  }
  return std::nullopt;
}

}  // namespace

BlockSummary BlockSummary::leaf(const core::GridCoord& c, bool feature) {
  BlockSummary s;
  s.row0 = c.row;
  s.col0 = c.col;
  s.width = 1;
  s.height = 1;
  const BoundaryLabel l = feature ? 1 : 0;
  for (BlockSummary::Edge* edge : {&s.north, &s.south, &s.west, &s.east}) {
    edge->push_back(l);
  }
  if (feature) {
    GridBounds b;
    b.expand(c);
    s.open.push_back(RegionInfo{1, b});
  }
  return s;
}

BlockSummary BlockSummary::of_rect(const FeatureGrid& grid, std::int32_t row0,
                                   std::int32_t col0, std::uint32_t width,
                                   std::uint32_t height) {
  // Label the sub-rectangle in isolation, then classify regions by whether
  // they touch its perimeter.
  FeatureGrid sub(std::max(width, height));
  // label_regions expects a square grid; use a square canvas with the
  // rectangle placed at the origin (the padding stays background).
  for (std::uint32_t r = 0; r < height; ++r) {
    for (std::uint32_t c = 0; c < width; ++c) {
      sub.set({static_cast<std::int32_t>(r), static_cast<std::int32_t>(c)},
              grid.at(row0 + static_cast<std::int32_t>(r),
                      col0 + static_cast<std::int32_t>(c)));
    }
  }
  const Labeling labeled = label_regions(sub);

  BlockSummary s;
  s.row0 = row0;
  s.col0 = col0;
  s.width = width;
  s.height = height;
  auto local_label = [&](std::uint32_t r, std::uint32_t c) {
    return labeled.label_at({static_cast<std::int32_t>(r),
                             static_cast<std::int32_t>(c)});
  };
  s.north.resize(width);
  s.south.resize(width);
  for (std::uint32_t c = 0; c < width; ++c) {
    s.north[c] = local_label(0, c);
    s.south[c] = local_label(height - 1, c);
  }
  s.west.resize(height);
  s.east.resize(height);
  for (std::uint32_t r = 0; r < height; ++r) {
    s.west[r] = local_label(r, 0);
    s.east[r] = local_label(r, width - 1);
  }

  // Region statistics in global coordinates; labels run 1..k.
  std::vector<RegionInfo> stats(labeled.regions.size());
  for (const Region& region : labeled.regions) {
    GridBounds global;
    global.row_min = region.bounds.row_min + row0;
    global.row_max = region.bounds.row_max + row0;
    global.col_min = region.bounds.col_min + col0;
    global.col_max = region.bounds.col_max + col0;
    RegionInfo& info = stats[region.label - 1];
    info = RegionInfo{region.area, global};
    const bool touch = region.bounds.row_min == 0 ||
                       region.bounds.col_min == 0 ||
                       region.bounds.row_max ==
                           static_cast<std::int32_t>(height) - 1 ||
                       region.bounds.col_max ==
                           static_cast<std::int32_t>(width) - 1;
    if (!touch) s.closed.push_back(info);
  }
  std::vector<BoundaryLabel> relabel;
  canonicalize(s, stats, relabel);
  return s;
}

std::uint64_t BlockSummary::total_area() const {
  std::uint64_t sum = 0;
  for (const RegionInfo& info : open) sum += info.area;
  for (const RegionInfo& info : closed) sum += info.area;
  return sum;
}

std::size_t BlockSummary::boundary_feature_cells() const {
  std::size_t count = 0;
  for_each_perimeter_label(*this,
                           [&](BoundaryLabel l) { count += l != 0 ? 1 : 0; });
  return count;
}

void BlockSummary::validate() const {
  if (width == 0 || height == 0) {
    throw std::logic_error("BlockSummary: empty extent");
  }
  if (north.size() != width || south.size() != width ||
      west.size() != height || east.size() != height) {
    throw std::logic_error("BlockSummary: edge length mismatch");
  }
  if (north.front() != west.front() || north.back() != east.front() ||
      south.front() != west.back() || south.back() != east.back()) {
    throw std::logic_error("BlockSummary: corner labels inconsistent");
  }
  if (height == 1 && north != south) {
    throw std::logic_error("BlockSummary: 1-row extent with north != south");
  }
  if (width == 1 && west != east) {
    throw std::logic_error("BlockSummary: 1-col extent with west != east");
  }
  // Every perimeter label must be an open region and vice versa; labels are
  // dense 1..k.
  std::vector<bool> seen(open.size(), false);
  for_each_perimeter_label(*this, [&](BoundaryLabel l) {
    if (l == 0) return;
    if (l > open.size()) {
      throw std::logic_error("BlockSummary: perimeter label not open");
    }
    seen[l - 1] = true;
  });
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (!seen[i]) {
      throw std::logic_error("BlockSummary: open region not on perimeter");
    }
    if (open[i].area == 0) {
      throw std::logic_error("BlockSummary: open region with zero area");
    }
  }
  for (const RegionInfo& info : closed) {
    if (info.area == 0) {
      throw std::logic_error("BlockSummary: closed region with zero area");
    }
  }
}

bool BlockSummary::mergeable_with(const BlockSummary& other) const {
  return classify(*this, other).has_value();
}

std::string BlockSummary::describe() const {
  std::ostringstream os;
  os << width << 'x' << height << " block at (" << row0 << ',' << col0
     << "): " << open.size() << " open, " << closed.size() << " closed";
  return os.str();
}

BlockSummary merge(BlockSummary&& a, BlockSummary&& b, MergeScratch& scratch) {
  const auto adjacency = classify(a, b);
  if (!adjacency) {
    throw std::invalid_argument("merge: extents are not edge-adjacent");
  }
  const auto [orientation, swapped] = *adjacency;
  BlockSummary& first = swapped ? b : a;   // west or north piece; the result
  BlockSummary& second = swapped ? a : b;  // east or south piece

  // Raw label space of the merged perimeter: first's labels keep their
  // values; second's labels are offset past them. Raw label l is
  // union-find element l - 1.
  const auto offset = static_cast<BoundaryLabel>(first.open.size());
  const std::size_t raw_count = first.open.size() + second.open.size();
  detail::DisjointSets& sets = scratch.sets;
  sets.reset(raw_count);
  using Edge = BlockSummary::Edge;
  auto unite_seam = [&](const Edge& edge_first, const Edge& edge_second) {
    for (std::size_t i = 0; i < edge_first.size(); ++i) {
      const BoundaryLabel la = edge_first[i];
      const BoundaryLabel lb = edge_second[i];
      if (la != 0 && lb != 0) {
        sets.unite(la - 1, lb + offset - 1);
      }
    }
  };
  // Appends second's `tail` to first's `edge`, shifting it into the raw
  // space.
  auto append = [offset](Edge& edge, const Edge& tail) {
    const std::size_t from = edge.size();
    edge.append(tail);
    for (std::size_t i = from; i < edge.size(); ++i) {
      if (edge[i] != 0) edge[i] += offset;
    }
  };
  // Replaces first's `edge` with second's, shifted into the raw space.
  auto take = [offset](Edge& edge, Edge& theirs) {
    edge = std::move(theirs);
    for (BoundaryLabel& l : edge) {
      if (l != 0) l += offset;
    }
  };

  if (orientation == Adjacency::kHorizontal) {
    unite_seam(first.east, second.west);
    first.width += second.width;
    append(first.north, second.north);
    append(first.south, second.south);
    take(first.east, second.east);
  } else {
    unite_seam(first.south, second.north);
    first.height += second.height;
    append(first.west, second.west);
    append(first.east, second.east);
    take(first.south, second.south);
  }

  // Resolve every perimeter label to its union-find root (in raw space).
  auto resolve = [&sets](Edge& edge) {
    for (BoundaryLabel& l : edge) {
      if (l != 0) l = sets.find(l - 1) + 1;
    }
  };
  resolve(first.north);
  resolve(first.south);
  resolve(first.west);
  resolve(first.east);

  // Accumulate statistics per root.
  std::vector<RegionInfo>& stats = scratch.stats;
  stats.assign(raw_count, RegionInfo{});
  auto fold = [&](const BlockSummary::OpenRegions& open,
                  BoundaryLabel label_offset) {
    for (std::size_t i = 0; i < open.size(); ++i) {
      RegionInfo& acc =
          stats[sets.find(static_cast<BoundaryLabel>(i) + label_offset)];
      acc.area += open[i].area;
      acc.bounds.merge(open[i].bounds);
    }
  };
  fold(first.open, 0);
  fold(second.open, offset);

  // Closed regions pass through; groups absent from the merged perimeter
  // close now, in ascending root order.
  first.closed.insert(first.closed.end(), second.closed.begin(),
                      second.closed.end());
  canonicalize(first, stats, scratch.relabel);
  for (std::uint32_t r = 0; r < raw_count; ++r) {
    if (sets.find(r) == r && scratch.relabel[r] == 0) {
      first.closed.push_back(stats[r]);
    }
  }
  return std::move(first);
}

BlockSummary merge(const BlockSummary& a, const BlockSummary& b) {
  MergeScratch scratch;
  return merge(BlockSummary(a), BlockSummary(b), scratch);
}

BlockSummary merge4(const BlockSummary& nw, const BlockSummary& ne,
                    const BlockSummary& sw, const BlockSummary& se) {
  return merge(merge(nw, ne), merge(sw, se));
}

std::vector<RegionInfo> finalize(const BlockSummary& root) {
  std::vector<RegionInfo> regions = root.closed;
  regions.insert(regions.end(), root.open.begin(), root.open.end());
  return regions;
}

std::uint32_t QuadAccumulator::add(BlockSummary piece) {
  if (received_ == pieces_.size()) {
    throw std::logic_error("QuadAccumulator: more than four pieces");
  }
  pieces_[held_++] = std::move(piece);
  ++received_;
  std::uint32_t merges = 0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < held_ && !progressed; ++i) {
      for (std::size_t j = i + 1; j < held_ && !progressed; ++j) {
        if (pieces_[i].mergeable_with(pieces_[j])) {
          pieces_[i] = merge(std::move(pieces_[i]), std::move(pieces_[j]),
                             *scratch_);
          std::move(pieces_.begin() + static_cast<std::ptrdiff_t>(j + 1),
                    pieces_.begin() + static_cast<std::ptrdiff_t>(held_),
                    pieces_.begin() + static_cast<std::ptrdiff_t>(j));
          --held_;
          ++merges;
          progressed = true;
        }
      }
    }
  }
  return merges;
}

bool QuadAccumulator::complete() const {
  return received_ == 4 && held_ == 1;
}

BlockSummary QuadAccumulator::take() {
  if (!complete()) {
    throw std::logic_error("QuadAccumulator: take() before complete");
  }
  held_ = 0;
  received_ = 0;
  return std::move(pieces_[0]);
}

}  // namespace wsn::app
