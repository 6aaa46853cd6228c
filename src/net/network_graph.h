// Connectivity graph G_R = (V_R, E_R) of the physical deployment:
// an edge (i,j) exists iff Euclidean distance(s_i, s_j) <= radio range
// (Section 5.1 of the paper).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/deployment.h"
#include "net/geometry.h"

namespace wsn::net {

/// Immutable adjacency structure over deployed nodes.
class NetworkGraph {
 public:
  /// Builds the unit-disk graph for `positions` with transmission range
  /// `range`. O(n^2) pair scan with a uniform grid bucket accelerator.
  NetworkGraph(std::vector<Point> positions, double range);

  std::size_t node_count() const { return positions_.size(); }
  double range() const { return range_; }
  const Point& position(NodeId id) const { return positions_[id]; }

  /// One-hop neighbors of `id` (the paper's NBR_i), sorted by id.
  std::span<const NodeId> neighbors(NodeId id) const {
    return {adjacency_.data() + offsets_[id],
            offsets_[id + 1] - offsets_[id]};
  }

  std::size_t degree(NodeId id) const {
    return offsets_[id + 1] - offsets_[id];
  }

  bool has_edge(NodeId a, NodeId b) const;

  std::size_t edge_count() const { return adjacency_.size() / 2; }

  /// True iff the whole graph is connected (paper assumes G_R connected).
  bool connected() const;

  /// True iff the subgraph induced by `members` is connected. Used for the
  /// paper's assumption that each cell's node set induces a connected
  /// subgraph.
  bool induced_connected(std::span<const NodeId> members) const;

  /// BFS hop distances from `source` to every node; unreachable nodes get
  /// kUnreachable.
  std::vector<std::uint32_t> hop_distances(NodeId source) const;

  /// BFS hop distances from `source` restricted to the induced subgraph of
  /// `members` (node ids outside `members` are treated as absent).
  std::vector<std::uint32_t> hop_distances_within(
      NodeId source, std::span<const NodeId> members) const;

  /// Shortest hop path from `from` to `to` (inclusive of endpoints); empty
  /// if unreachable.
  std::vector<NodeId> shortest_path(NodeId from, NodeId to) const;

  static constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

 private:
  std::vector<Point> positions_;
  double range_;
  // CSR adjacency.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
};

}  // namespace wsn::net
