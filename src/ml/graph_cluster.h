// Graph-partitioning clustering — the alternative the paper evaluated
// against K-means (§V-D1: "K-means demonstrated significantly higher
// accuracy compared to other clustering methods like Graph Partitioning,
// which does not require the number of clusters").
//
// Classic single-linkage graph clustering: connect every pair of points
// closer than a distance threshold (or mutual k-nearest-neighbours), then
// report connected components as clusters. No K required — but chaining
// merges adjacent resource clusters, which is exactly why it loses to
// K-means on frame data.
#pragma once

#include <vector>

#include "ml/kmeans.h"

namespace cocg::ml {

/// Scale of the adaptive edge rule (see GraphClusterConfig::epsilon).
inline constexpr double kAdaptiveEpsilonScale = 3.0;

struct GraphClusterConfig {
  /// Edge rule: connect points within `epsilon` (normalized distance).
  /// epsilon <= 0 selects the adaptive rule: epsilon =
  /// kAdaptiveEpsilonScale × the median nearest-neighbour distance.
  double epsilon = 0.0;
  /// Components smaller than this are merged into the nearest big cluster
  /// (noise handling).
  std::size_t min_cluster_size = 3;
};

struct GraphClusterResult {
  std::vector<int> assignment;   ///< per-point component id (0-based, dense)
  PointSet centroids;            ///< component means
  int num_clusters = 0;
  double epsilon_used = 0.0;
};

/// Cluster `points` by distance-threshold connectivity.
GraphClusterResult graph_cluster(const PointSet& points,
                                 const GraphClusterConfig& cfg = {});

/// Adjusted Rand Index between two labelings of the same points:
/// 1 = identical partitions, ~0 = random agreement. Standard Hubert-Arabie
/// form; requires equal non-empty sizes.
double adjusted_rand_index(const std::vector<int>& a,
                           const std::vector<int>& b);

}  // namespace cocg::ml
