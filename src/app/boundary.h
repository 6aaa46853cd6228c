// Region-boundary summaries: the data structure exchanged by the in-network
// divide-and-conquer labeling algorithm (Sections 3.1 and 4).
//
// "At each level of hierarchy, a node receives data from its four children,
// containing a description of the boundaries of feature regions contained
// within the sender's geographic oversight. The boundary information also
// indicates whether the feature region(s) lie entirely within that extent,
// or information from neighboring extents is required to identify the true
// boundary of the feature region."
//
// A BlockSummary describes a rectangular extent by (i) the region label of
// every cell on its perimeter, (ii) statistics (area, bounding box) of every
// OPEN region - one that touches the perimeter and may continue outside -
// and (iii) statistics of every CLOSED region, fully contained and final.
// Two summaries of edge-adjacent rectangles merge by unioning labels across
// the shared seam (a disjoint-set pass over perimeter labels); regions that
// no longer touch the merged perimeter close. This is the maximally
// compressed representation the spatial-correlation constraint exists to
// enable: merging non-adjacent extents would forfeit it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "app/feature_grid.h"
#include "app/labeling.h"

namespace wsn::app {

/// Perimeter label; 0 = background, open regions numbered densely from 1.
using BoundaryLabel = std::uint32_t;

/// Statistics carried per region.
struct RegionInfo {
  std::uint64_t area = 0;
  GridBounds bounds;

  friend bool operator==(const RegionInfo&, const RegionInfo&) = default;
};

/// A sequence of trivially copyable elements that holds up to `N` of them
/// in place and moves to the heap only when it grows past `N`. Copies and
/// moves copy live elements only; a move takes over a heap buffer.
template <typename T, std::size_t N>
class InPlaceVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InPlaceVector() = default;
  InPlaceVector(const InPlaceVector& other) { *this = other; }
  InPlaceVector(InPlaceVector&& other) noexcept { *this = std::move(other); }
  ~InPlaceVector() { release(); }

  InPlaceVector& operator=(const InPlaceVector& other) {
    if (this != &other) {
      size_ = 0;
      reserve(other.size_);
      std::copy_n(other.data_, other.size_, data_);
      size_ = other.size_;
    }
    return *this;
  }

  /// Leaves `other` empty and in place.
  InPlaceVector& operator=(InPlaceVector&& other) noexcept {
    if (this == &other) return *this;
    if (other.data_ != other.place_) {
      release();
      data_ = std::exchange(other.data_, other.place_);
      capacity_ = std::exchange(other.capacity_, std::uint32_t{N});
    } else {
      // Fits: every buffer holds at least N elements.
      std::copy_n(other.data_, other.size_, data_);
    }
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }
  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("InPlaceVector::at");
    return data_[i];
  }

  void clear() { size_ = 0; }

  /// Makes room for `n` elements without growing past them.
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("InPlaceVector: too many elements");
    }
    T* fresh = std::allocator<T>().allocate(n);
    std::copy_n(data_, size_, fresh);
    release();
    data_ = fresh;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  void push_back(T value) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = value;
  }

  /// Drops elements past `n`, or appends copies of `value` up to `n`.
  void resize(std::size_t n, T value = T{}) {
    grow(n);
    if (n > size_) std::fill(data_ + size_, data_ + n, value);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Appends `tail`, which must not lie in this vector.
  void append(std::span<const T> tail) {
    grow(size_ + tail.size());
    std::copy(tail.begin(), tail.end(), data_ + size_);
    size_ += static_cast<std::uint32_t>(tail.size());
  }

  friend bool operator==(const InPlaceVector& a, const InPlaceVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  /// Makes room for `n` elements, at least doubling a buffer that grows.
  void grow(std::size_t n) {
    if (n > capacity_) reserve(std::max<std::size_t>(n, 2 * capacity_));
  }

  void release() {
    if (data_ != place_) std::allocator<T>().deallocate(data_, capacity_);
    data_ = place_;
    capacity_ = N;
  }

  T* data_ = place_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  T place_[N];
};

/// Boundary description of one rectangular extent.
struct BlockSummary {
  /// Perimeter labels each edge holds in place: a 4x4 block's edges fit,
  /// so a 16x16 query's leaves and its 2x2 and 4x4 blocks keep their
  /// edges off the heap.
  static constexpr std::size_t kEdgeInPlace = 4;
  /// Open regions held in place: a 2x2 block has at most two, and a 4x4
  /// block of a smooth field seldom more.
  static constexpr std::size_t kOpenInPlace = 2;
  using Edge = InPlaceVector<BoundaryLabel, kEdgeInPlace>;
  using OpenRegions = InPlaceVector<RegionInfo, kOpenInPlace>;

  // Extent in grid coordinates.
  std::int32_t row0 = 0;
  std::int32_t col0 = 0;
  std::uint32_t width = 0;   // columns
  std::uint32_t height = 0;  // rows

  // Perimeter labels. north/south run west->east (length width); west/east
  // run north->south (length height). Corner cells appear in two arrays and
  // must agree.
  Edge north, south, west, east;

  /// Open regions (touch the perimeter; may extend beyond it), indexed by
  /// label - 1: the region labelled l is open[l - 1].
  OpenRegions open;
  /// Closed regions (entirely inside; final).
  std::vector<RegionInfo> closed;

  /// Single-cell summary for one point of coverage.
  static BlockSummary leaf(const core::GridCoord& c, bool feature);

  /// Exact summary of an arbitrary sub-rectangle of `grid` (reference
  /// construction used by tests to cross-check merges).
  static BlockSummary of_rect(const FeatureGrid& grid, std::int32_t row0,
                              std::int32_t col0, std::uint32_t width,
                              std::uint32_t height);

  std::size_t open_count() const { return open.size(); }
  std::size_t closed_count() const { return closed.size(); }

  /// Total feature area represented (open + closed).
  std::uint64_t total_area() const;

  /// Number of feature cells on the perimeter (corners counted once).
  std::size_t boundary_feature_cells() const;

  /// Checks structural invariants (corner consistency, open labels present
  /// on the perimeter, dense labeling); throws std::logic_error on failure.
  void validate() const;

  /// True iff `other`'s extent is edge-adjacent to this one (shares a full
  /// east/west or north/south edge), so merge() is defined.
  bool mergeable_with(const BlockSummary& other) const;

  std::string describe() const;
};

/// Working storage of merge(), indexed by label: the union-find over both
/// pieces' open regions, the statistics of each resulting region and its
/// new label. Whoever runs a sequence of merges (a query round) owns one and
/// passes it to each, so merges stop allocating here once it has grown to
/// the largest pair of pieces.
struct MergeScratch {
  detail::DisjointSets sets;
  std::vector<RegionInfo> stats;
  std::vector<BoundaryLabel> relabel;
};

/// Merges two edge-adjacent summaries into the summary of their union,
/// consuming both: the result extends the west (or north) piece's edges
/// and takes over the other piece's far edge. Regions that close in this
/// merge are appended to `closed` in ascending order of their union-find
/// root. Throws std::invalid_argument, leaving both pieces unchanged, if the
/// extents are not edge-adjacent.
BlockSummary merge(BlockSummary&& a, BlockSummary&& b, MergeScratch& scratch);

/// The same merge for callers that keep their pieces: copies both, then
/// runs the consuming merge with its own scratch.
BlockSummary merge(const BlockSummary& a, const BlockSummary& b);

/// Merges four quadrant summaries (NW, NE, SW, SE of one square) via
/// pairwise merges.
BlockSummary merge4(const BlockSummary& nw, const BlockSummary& ne,
                    const BlockSummary& sw, const BlockSummary& se);

/// Closes every open region (used at the root, whose extent has no
/// neighbors) and returns all regions of the extent.
std::vector<RegionInfo> finalize(const BlockSummary& root);

/// Message size model: units of data a summary occupies on the air. The
/// paper's analysis uses fixed-size messages (base only); the data-dependent
/// terms support sensitivity studies on the compression claim.
struct SummarySizeModel {
  double base = 1.0;
  double per_boundary_cell = 0.0;
  double per_open_region = 0.0;

  double units(const BlockSummary& s) const {
    return base +
           per_boundary_cell * static_cast<double>(s.boundary_feature_cells()) +
           per_open_region * static_cast<double>(s.open_count());
  }
};

/// Opportunistically merging accumulator for the four child summaries of a
/// quad-tree node. add() merges edge-adjacent pieces as soon as they are
/// both present ("incoming information is incrementally processed wherever
/// possible", Section 4.3); complete() returns the full block summary once
/// all four quadrants have arrived.
class QuadAccumulator {
 public:
  /// Merges with `scratch`, which the accumulators of one round share; it
  /// must outlive the accumulator.
  explicit QuadAccumulator(MergeScratch& scratch) : scratch_(&scratch) {}

  /// Adds one child summary; returns the number of pairwise merges
  /// performed immediately (0, 1, or 2), which the caller charges as
  /// computation. Throws std::logic_error on a fifth piece.
  std::uint32_t add(BlockSummary piece);

  bool complete() const;
  std::size_t pieces_received() const { return received_; }

  /// Extracts the merged summary; requires complete().
  BlockSummary take();

 private:
  MergeScratch* scratch_;
  /// Pieces not yet merged into another: the first `held_` of the array.
  std::array<BlockSummary, 4> pieces_;
  std::size_t held_ = 0;
  std::size_t received_ = 0;
};

}  // namespace wsn::app
