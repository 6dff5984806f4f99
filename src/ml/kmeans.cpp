#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

// Relative and absolute slack of the bound test. Distances and bounds
// are off their exact values by a few ulps per operation, far below 1e-9
// of the data's scale, so a point kept by the test has the same nearest
// centroid under the computed distances as under the exact ones.
constexpr double kMargin = 1e-9;

// Buffers shared by the restarts of one fit.
struct Scratch {
  std::vector<double> best;      ///< n: seeding's nearest squared distance
  std::vector<double> lower;     ///< n: distance to second-nearest, or below
  std::vector<double> half_gap;  ///< k: half the distance to nearest other
  std::vector<double> sums;          ///< k × dims
  std::vector<std::size_t> counts;   ///< k
  // The last update's two largest centroid drifts, and whose the largest
  // was: every centroid but a point's own moved by at most `far` or, for
  // the points of `far_c`, by `next_far`.
  std::size_t far_c = 0;
  double far = 0.0;
  double next_far = 0.0;
};

// k-means++ seeding: first centroid uniform, each next proportional to
// squared distance from the nearest chosen centroid. Each chosen centroid
// is folded into every point's nearest (strict <, so a tie keeps the
// lower index) and second-nearest squared distance in the order chosen,
// which is exactly what a scan over all of them gives. Once the last one
// is folded, the assignment is Lloyd's first assignment step and the
// second-nearest distance its lower bound. The weighted pick walks
// uniform() × the fold's total down the weights in point order, as
// Rng::weighted_index does.
template <std::size_t Dims>
void seed_plusplus(const PointSet& points, std::size_t k, Rng& rng,
                   Scratch& s, KMeansResult& res) {
  const std::size_t n = points.size();
  const std::size_t dims = Dims != 0 ? Dims : points.dims();
  const double* pts = points.data();
  double* cen = res.centroids.data();
  int* assign = res.assignment.data();
  double* best = s.best.data();
  double* second = s.lower.data();  // squared until the end
  std::fill_n(best, n, std::numeric_limits<double>::max());
  std::fill_n(second, n, std::numeric_limits<double>::max());
  std::fill_n(assign, n, 0);

  auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  for (std::size_t c = 0;; ++c) {
    const double* chosen = cen + c * dims;
    std::copy_n(pts + pick * dims, dims, cen + c * dims);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = sq_dist(pts + i * dims, chosen, dims);
      if (d < best[i]) {
        second[i] = best[i];
        best[i] = d;
        assign[i] = static_cast<int>(c);
      } else if (d < second[i]) {
        second[i] = d;
      }
      total += best[i];
    }
    if (c + 1 == k) break;
    // All points coinciding with chosen centroids duplicate the first point.
    pick = 0;
    if (total > 0.0) {
      double x = rng.uniform() * total;
      pick = n - 1;  // numeric edge: fell off the end
      for (std::size_t i = 0; i < n; ++i) {
        x -= best[i];
        if (x < 0.0) {
          pick = i;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) second[i] = std::sqrt(second[i]);
  s.far_c = 0;
  s.far = s.next_far = 0.0;
}

// One assignment step under Hamerly's bounds (Hamerly, "Making k-means
// even faster", SDM 2010). Each point's lower bound on its distance to
// any centroid but its own first drops by the last update's drift. A
// point keeps its centroid after one distance when that distance is below
// both the lower bound and half its centroid's gap to the nearest other,
// by kMargin: then no other centroid can be as near. Otherwise the point
// takes the plain scan's answer, so every assignment is the plain scan's.
// (At 4 dims the exact distance costs no more than keeping Hamerly's
// upper bound would save.) With `sse` the step is the final one and sums
// each point's squared distance in point order.
template <std::size_t Dims>
void assign_bounded(const PointSet& points, std::size_t k, Scratch& s,
                    KMeansResult& res, double* sse) {
  const std::size_t n = points.size();
  const std::size_t dims = Dims != 0 ? Dims : points.dims();
  const double* pts = points.data();
  const double* cen = res.centroids.data();
  int* assign = res.assignment.data();
  double* lower = s.lower.data();
  double* half_gap = s.half_gap.data();

  std::fill_n(half_gap, k, std::numeric_limits<double>::infinity());
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      const double g =
          0.5 * std::sqrt(sq_dist(cen + a * dims, cen + b * dims, dims));
      half_gap[a] = std::min(half_gap[a], g);
      half_gap[b] = std::min(half_gap[b], g);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * dims;
    const auto a = static_cast<std::size_t>(assign[i]);
    lower[i] -= a == s.far_c ? s.next_far : s.far;
    const double d = sq_dist(p, cen + a * dims, dims);
    const double bound = std::max(half_gap[a], lower[i]);
    if (std::sqrt(d) * (1.0 + kMargin) + kMargin < bound * (1.0 - kMargin)) {
      if (sse != nullptr) *sse += d;
      continue;
    }
    // The plain scan, also keeping the second-nearest distance. Branch-
    // free: best <= second, so the second-nearest is min(second,
    // max(best, dc)) whichever of the two dc displaces.
    int best_c = 0;
    double best = std::numeric_limits<double>::max();
    double second = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < k; ++c) {
      const double dc = sq_dist(cen + c * dims, p, dims);
      best_c = dc < best ? static_cast<int>(c) : best_c;
      second = std::min(second, std::max(best, dc));
      best = std::min(best, dc);
    }
    assign[i] = best_c;
    lower[i] = std::sqrt(second);
    if (sse != nullptr) *sse += best;
  }
}

// Lloyd's iterations from the seeded centroids and first assignment in
// `res` and `s`, allocation-free. A nonzero `Dims` is the points' width
// as a constant, which lets the compiler unroll every distance; the
// operations and their order are the same either way.
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
    // Assignment step; seeding made the first.
    if (iter > 0) assign_bounded<Dims>(points, k, s, res, nullptr);
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
    s.far_c = 0;
    s.far = s.next_far = 0.0;
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
      const double drift = std::sqrt(acc);
      if (drift > s.far) {
        s.next_far = s.far;
        s.far = drift;
        s.far_c = c;
      } else if (drift > s.next_far) {
        s.next_far = drift;
      }
    }
    res.iterations = iter + 1;
    if (movement < cfg.tolerance) {
      res.converged = true;
      break;
    }
  }
  // Final assignment against the final centroids.
  res.sse = 0.0;
  assign_bounded<Dims>(points, k, s, res, &res.sse);
}

template <std::size_t Dims>
void fit_once(const PointSet& points, const KMeansConfig& cfg, Rng& rng,
              Scratch& s, KMeansResult& res) {
  seed_plusplus<Dims>(points, static_cast<std::size_t>(cfg.k), rng, s, res);
  lloyd<Dims>(points, cfg, s, res);
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
  s.best.resize(points.size());
  s.lower.resize(points.size());
  s.half_gap.resize(k);
  s.sums.resize(k * dims);
  s.counts.resize(k);
  KMeansResult best, run;
  for (KMeansResult* r : {&best, &run}) {
    r->centroids = PointSet(k, dims);
    r->assignment.resize(points.size());
  }
  best.sse = std::numeric_limits<double>::max();
  for (int r = 0; r < cfg.restarts; ++r) {
    // The profiler's frame points are 4 wide (CPU, GPU, RAM, VRAM).
    if (dims == 4) {
      fit_once<4>(points, cfg, rng, s, run);
    } else {
      fit_once<0>(points, cfg, rng, s, run);
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
