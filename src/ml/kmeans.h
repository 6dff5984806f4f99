// K-means clustering with k-means++ seeding (§IV-A2, Fig. 5/6/14).
//
// The profiler clusters 5-second frame slices in normalized resource space;
// Fig. 14's elbow analysis (SSE vs K) drives the per-game choice of K.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/rng.h"

namespace cocg::ml {

/// Equal-width points held row-major in one flat array.
class PointSet {
 public:
  PointSet() = default;
  /// `n` all-zero points of width `dims`.
  PointSet(std::size_t n, std::size_t dims)
      : values_(n * dims, 0.0), n_(n), dims_(dims) {}
  PointSet(std::initializer_list<std::initializer_list<double>> rows);

  /// Append one point. An empty set takes its width from its first point;
  /// every later point must match it.
  void add(std::span<const double> p);
  void add(std::initializer_list<double> p) {
    add(std::span<const double>(p.begin(), p.size()));
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::size_t dims() const { return dims_; }

  std::span<const double> operator[](std::size_t i) const {
    return {values_.data() + i * dims_, dims_};
  }
  std::span<double> operator[](std::size_t i) {
    return {values_.data() + i * dims_, dims_};
  }
  const double* data() const { return values_.data(); }
  double* data() { return values_.data(); }

 private:
  std::vector<double> values_;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
};

struct KMeansResult {
  PointSet centroids;               ///< k centroids
  std::vector<int> assignment;      ///< per-input-point cluster index
  double sse = 0.0;                 ///< sum of squared distances to centroid
  int iterations = 0;               ///< Lloyd iterations executed
  bool converged = false;
};

struct KMeansConfig {
  int k = 2;
  int max_iterations = 100;
  double tolerance = 1e-7;  ///< stop when total centroid movement^2 < tol
  int restarts = 4;         ///< keep the best-SSE result over restarts
};

class KMeans {
 public:
  /// Cluster `points` (k <= points.size()).
  static KMeansResult fit(const PointSet& points, const KMeansConfig& cfg,
                          Rng& rng);

  /// Nearest-centroid lookup for a new point.
  static int predict(const PointSet& centroids, std::span<const double> p);

  /// Squared Euclidean distance between equal-width points.
  static double dist_sq(std::span<const double> a, std::span<const double> b);
};

/// Fig. 14 helper: SSE for each K in [1, k_max], each fit independently.
std::vector<double> sse_curve(const PointSet& points, int k_max, Rng& rng,
                              int restarts = 4);

/// Pick the elbow of an SSE curve: the K (1-based) after which the relative
/// improvement drops below `min_gain` (default 10%).
int pick_elbow(const std::vector<double>& sse_by_k, double min_gain = 0.10);

}  // namespace cocg::ml
