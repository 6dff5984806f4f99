#include "ml/kmeans.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace cocg::ml {

PointSet::PointSet(std::initializer_list<std::initializer_list<double>> rows) {
  for (const auto& r : rows) add(r);
}

void PointSet::add(std::span<const double> p) {
  if (n_ == 0) dims_ = p.size();
  COCG_EXPECTS_MSG(p.size() == dims_, "all points must share one width");
  values_.insert(values_.end(), p.begin(), p.end());
  ++n_;
}

namespace {

// Every distance sums (a[i] - b[i])^2 in dimension order; the fit's bits
// depend on that order, not on how the points are stored.
double sq_dist(const double* a, const double* b, std::size_t dims) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

// Nearest of `k` row-major centroids; a tie goes to the lowest index.
int nearest(const double* centroids, std::size_t k, const double* p,
            std::size_t dims) {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const double d = sq_dist(centroids + c * dims, p, dims);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

// Buffers shared by the restarts of one fit.
struct Scratch {
  std::vector<double> d2;            ///< seeding: distance to nearest chosen
  std::vector<double> sums;          ///< k × dims
  std::vector<std::size_t> counts;   ///< k
};

// k-means++ seeding: first centroid uniform, each next proportional to
// squared distance from the nearest chosen centroid. d2 folds each new
// centroid into a running minimum in the order they were chosen, which is
// exactly the minimum over all of them.
void seed_plusplus(const PointSet& points, std::size_t k, Rng& rng,
                   std::vector<double>& d2, PointSet& centroids) {
  const std::size_t n = points.size();
  const std::size_t dims = points.dims();
  const auto take = [&](std::size_t c, std::size_t i) {
    std::copy_n(points[i].data(), dims, centroids[c].data());
  };
  take(0, static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  d2.assign(n, std::numeric_limits<double>::max());
  for (std::size_t c = 1; c < k; ++c) {
    const double* newest = centroids[c - 1].data();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], sq_dist(points[i].data(), newest, dims));
      total += d2[i];
    }
    // All points coinciding with chosen centroids duplicate the first point.
    take(c, total <= 0.0 ? 0 : rng.weighted_index(d2));
  }
}

// Lloyd's iterations from the centroids in `res`, allocation-free. A
// nonzero `Dims` is the points' width as a constant, which lets the
// compiler unroll every distance; the operations and their order are the
// same either way.
template <std::size_t Dims>
void lloyd(const PointSet& points, const KMeansConfig& cfg, Scratch& s,
           KMeansResult& res) {
  const std::size_t n = points.size();
  const std::size_t dims = Dims != 0 ? Dims : points.dims();
  const auto k = static_cast<std::size_t>(cfg.k);
  const double* pts = points.data();
  double* cen = res.centroids.data();

  res.iterations = 0;
  res.converged = false;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    // Assignment step.
    for (std::size_t i = 0; i < n; ++i) {
      res.assignment[i] = nearest(cen, k, pts + i * dims, dims);
    }
    // Update step: per-cluster sums in point order.
    std::fill(s.sums.begin(), s.sums.end(), 0.0);
    std::fill(s.counts.begin(), s.counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(res.assignment[i]);
      ++s.counts[c];
      double* sum = s.sums.data() + c * dims;
      for (std::size_t d = 0; d < dims; ++d) sum[d] += pts[i * dims + d];
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (s.counts[c] == 0) continue;  // empty cluster keeps its centroid
      // sq_dist(old, new), summed as the centroid moves.
      double* centroid = cen + c * dims;
      const double* sum = s.sums.data() + c * dims;
      double acc = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double next = sum[d] / static_cast<double>(s.counts[c]);
        const double diff = centroid[d] - next;
        acc += diff * diff;
        centroid[d] = next;
      }
      movement += acc;
    }
    res.iterations = iter + 1;
    if (movement < cfg.tolerance) {
      res.converged = true;
      break;
    }
  }
  // Final assignment against the final centroids.
  res.sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * dims;
    const int c = nearest(cen, k, p, dims);
    res.assignment[i] = c;
    res.sse += sq_dist(p, cen + static_cast<std::size_t>(c) * dims, dims);
  }
}

}  // namespace

double KMeans::dist_sq(std::span<const double> a, std::span<const double> b) {
  COCG_EXPECTS(a.size() == b.size());
  return sq_dist(a.data(), b.data(), a.size());
}

int KMeans::predict(const PointSet& centroids, std::span<const double> p) {
  COCG_EXPECTS(!centroids.empty());
  COCG_EXPECTS(p.size() == centroids.dims());
  return nearest(centroids.data(), centroids.size(), p.data(), p.size());
}

KMeansResult KMeans::fit(const PointSet& points, const KMeansConfig& cfg,
                         Rng& rng) {
  COCG_EXPECTS(cfg.k >= 1);
  COCG_EXPECTS_MSG(points.size() >= static_cast<std::size_t>(cfg.k),
                   "need at least k points");
  COCG_EXPECTS(cfg.restarts >= 1);
  const auto k = static_cast<std::size_t>(cfg.k);
  const std::size_t dims = points.dims();

  Scratch s;
  s.sums.resize(k * dims);
  s.counts.resize(k);
  KMeansResult best, run;
  for (KMeansResult* r : {&best, &run}) {
    r->centroids = PointSet(k, dims);
    r->assignment.resize(points.size());
  }
  best.sse = std::numeric_limits<double>::max();
  for (int r = 0; r < cfg.restarts; ++r) {
    seed_plusplus(points, k, rng, s.d2, run.centroids);
    // The profiler's frame points are 4 wide (CPU, GPU, RAM, VRAM).
    if (dims == 4) {
      lloyd<4>(points, cfg, s, run);
    } else {
      lloyd<0>(points, cfg, s, run);
    }
    if (run.sse < best.sse) std::swap(best, run);
  }
  return best;
}

std::vector<double> sse_curve(const PointSet& points, int k_max, Rng& rng,
                              int restarts) {
  COCG_EXPECTS(k_max >= 1);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(k_max));
  for (int k = 1; k <= k_max; ++k) {
    if (static_cast<std::size_t>(k) > points.size()) break;
    KMeansConfig cfg;
    cfg.k = k;
    cfg.restarts = restarts;
    out.push_back(KMeans::fit(points, cfg, rng).sse);
  }
  return out;
}

int pick_elbow(const std::vector<double>& sse_by_k, double min_gain) {
  COCG_EXPECTS(!sse_by_k.empty());
  COCG_EXPECTS(min_gain > 0.0 && min_gain < 1.0);
  for (std::size_t i = 1; i < sse_by_k.size(); ++i) {
    const double prev = sse_by_k[i - 1];
    if (prev <= 0.0) return static_cast<int>(i);  // already perfect fit
    const double gain = (prev - sse_by_k[i]) / prev;
    if (gain < min_gain) return static_cast<int>(i);  // K = i (1-based K of prev)
  }
  return static_cast<int>(sse_by_k.size());
}

}  // namespace cocg::ml
