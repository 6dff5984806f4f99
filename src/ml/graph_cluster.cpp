#include "ml/graph_cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "common/check.h"

namespace cocg::ml {

namespace {

/// Union-find with path compression.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

GraphClusterResult graph_cluster(const PointSet& points,
                                 const GraphClusterConfig& cfg) {
  COCG_EXPECTS(!points.empty());
  const std::size_t n = points.size();
  const std::size_t dims = points.dims();

  GraphClusterResult res;

  // Choose epsilon: fixed, or adaptive from nearest-neighbour distances.
  double eps = cfg.epsilon;
  if (eps <= 0.0) {
    std::vector<double> nn(n, std::numeric_limits<double>::max());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        nn[i] = std::min(nn[i], KMeans::dist_sq(points[i], points[j]));
      }
    }
    for (auto& d : nn) d = std::sqrt(d);
    std::nth_element(nn.begin(), nn.begin() + static_cast<std::ptrdiff_t>(n / 2),
                     nn.end());
    eps = kAdaptiveEpsilonScale * nn[n / 2];
    if (eps <= 0.0) eps = 1e-9;
  }
  res.epsilon_used = eps;
  const double eps_sq = eps * eps;

  // Connect all pairs within epsilon.
  DisjointSet ds(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (KMeans::dist_sq(points[i], points[j]) <= eps_sq) ds.unite(i, j);
    }
  }

  // Densify component ids.
  std::map<std::size_t, int> id_of_root;
  res.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = ds.find(i);
    auto [it, inserted] =
        id_of_root.emplace(root, static_cast<int>(id_of_root.size()));
    res.assignment[i] = it->second;
  }
  int k = static_cast<int>(id_of_root.size());

  // Merge tiny components into the nearest large one.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(k), 0);
  for (int c : res.assignment) ++sizes[static_cast<std::size_t>(c)];
  PointSet centroids(static_cast<std::size_t>(k), dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      centroids[static_cast<std::size_t>(res.assignment[i])][d] +=
          points[i][d];
    }
  }
  for (int c = 0; c < k; ++c) {
    for (auto& v : centroids[static_cast<std::size_t>(c)]) {
      v /= static_cast<double>(sizes[static_cast<std::size_t>(c)]);
    }
  }
  bool any_big = false;
  for (int c = 0; c < k; ++c) {
    if (sizes[static_cast<std::size_t>(c)] >= cfg.min_cluster_size) {
      any_big = true;
    }
  }
  if (any_big) {
    std::vector<int> remap(static_cast<std::size_t>(k), -1);
    for (int c = 0; c < k; ++c) {
      if (sizes[static_cast<std::size_t>(c)] >= cfg.min_cluster_size) {
        continue;
      }
      // Nearest big centroid.
      int best = -1;
      double best_d = std::numeric_limits<double>::max();
      for (int o = 0; o < k; ++o) {
        if (sizes[static_cast<std::size_t>(o)] < cfg.min_cluster_size) {
          continue;
        }
        const double d = KMeans::dist_sq(
            centroids[static_cast<std::size_t>(c)],
            centroids[static_cast<std::size_t>(o)]);
        if (d < best_d) {
          best_d = d;
          best = o;
        }
      }
      remap[static_cast<std::size_t>(c)] = best;
    }
    for (auto& a : res.assignment) {
      const int m = remap[static_cast<std::size_t>(a)];
      if (m >= 0) a = m;
    }
  }

  // Re-densify ids after merging and recompute centroids.
  std::map<int, int> dense;
  for (auto& a : res.assignment) {
    auto [it, inserted] = dense.emplace(a, static_cast<int>(dense.size()));
    a = it->second;
  }
  res.num_clusters = static_cast<int>(dense.size());
  res.centroids = PointSet(static_cast<std::size_t>(res.num_clusters), dims);
  std::vector<std::size_t> counts(
      static_cast<std::size_t>(res.num_clusters), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(res.assignment[i]);
    ++counts[c];
    for (std::size_t d = 0; d < dims; ++d) {
      res.centroids[c][d] += points[i][d];
    }
  }
  for (std::size_t c = 0; c < res.centroids.size(); ++c) {
    for (auto& v : res.centroids[c]) v /= static_cast<double>(counts[c]);
  }
  return res;
}

double adjusted_rand_index(const std::vector<int>& a,
                           const std::vector<int>& b) {
  COCG_EXPECTS(a.size() == b.size());
  COCG_EXPECTS(!a.empty());
  const std::size_t n = a.size();

  std::map<std::pair<int, int>, double> cont;
  std::map<int, double> row, col;
  for (std::size_t i = 0; i < n; ++i) {
    cont[{a[i], b[i]}] += 1.0;
    row[a[i]] += 1.0;
    col[b[i]] += 1.0;
  }
  auto choose2 = [](double x) { return x * (x - 1.0) / 2.0; };
  double sum_cells = 0.0, sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [k, v] : cont) sum_cells += choose2(v);
  for (const auto& [k, v] : row) sum_rows += choose2(v);
  for (const auto& [k, v] : col) sum_cols += choose2(v);
  const double total = choose2(static_cast<double>(n));
  const double expected = sum_rows * sum_cols / total;
  const double max_index = (sum_rows + sum_cols) / 2.0;
  if (max_index == expected) return 1.0;  // both partitions trivial
  return (sum_cells - expected) / (max_index - expected);
}

}  // namespace cocg::ml
