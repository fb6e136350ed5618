#pragma once

#include <cstddef>
#include <span>

namespace manet {

/// An undirected edge weighted by Euclidean distance.
struct WeightedEdge {
  std::size_t u = 0;
  std::size_t v = 0;
  double weight = 0.0;
};

/// The largest edge weight of a spanning tree — for an MST this is the
/// bottleneck: the minimum transmitting range making the point graph
/// connected. Returns 0 for trees with no edges (n <= 1: vacuously
/// connected at any range).
double tree_bottleneck(std::span<const WeightedEdge> tree);

/// Total weight of a tree (sum of edge weights).
double tree_total_weight(std::span<const WeightedEdge> tree);

}  // namespace manet
