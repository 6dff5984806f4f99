#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/resources.h"
#include "game/library.h"
#include "game/tracegen.h"

namespace cocg::ml {
namespace {

/// Three well-separated 2-D blobs.
PointSet blobs(Rng& rng, int per_blob = 30) {
  const double centers[3][2]{{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  PointSet pts;
  for (const auto& c : centers) {
    for (int i = 0; i < per_blob; ++i) {
      pts.add({c[0] + rng.normal(0, 0.3), c[1] + rng.normal(0, 0.3)});
    }
  }
  return pts;
}

TEST(KMeans, DistSq) {
  const std::vector<double> origin{0, 0}, p34{3, 4}, one{1}, one_two{1, 2};
  EXPECT_DOUBLE_EQ(KMeans::dist_sq(origin, p34), 25.0);
  EXPECT_DOUBLE_EQ(KMeans::dist_sq(one, one), 0.0);
  EXPECT_THROW(KMeans::dist_sq(one, one_two), ContractError);
}

TEST(KMeans, RecoversSeparatedBlobs) {
  Rng rng(5);
  const auto pts = blobs(rng);
  KMeansConfig cfg;
  cfg.k = 3;
  const auto res = KMeans::fit(pts, cfg, rng);
  EXPECT_EQ(res.centroids.size(), 3u);
  EXPECT_TRUE(res.converged);
  // Each blob's 30 points share one label, and labels differ across blobs.
  std::set<int> blob_labels;
  for (int b = 0; b < 3; ++b) {
    const int label = res.assignment[static_cast<std::size_t>(b * 30)];
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(res.assignment[static_cast<std::size_t>(b * 30 + i)], label);
    }
    blob_labels.insert(label);
  }
  EXPECT_EQ(blob_labels.size(), 3u);
}

TEST(KMeans, SseDecreasesWithK) {
  Rng rng(6);
  const auto pts = blobs(rng);
  const auto curve = sse_curve(pts, 5, rng);
  ASSERT_EQ(curve.size(), 5u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-9);
  }
}

TEST(KMeans, ElbowFindsTrueK) {
  Rng rng(7);
  const auto pts = blobs(rng);
  const auto curve = sse_curve(pts, 6, rng);
  EXPECT_EQ(pick_elbow(curve, 0.3), 3);
}

TEST(KMeans, KOneSingleCentroid) {
  Rng rng(8);
  PointSet pts{{0, 0}, {2, 2}, {4, 4}};
  KMeansConfig cfg;
  cfg.k = 1;
  const auto res = KMeans::fit(pts, cfg, rng);
  ASSERT_EQ(res.centroids.size(), 1u);
  EXPECT_NEAR(res.centroids[0][0], 2.0, 1e-9);
  EXPECT_NEAR(res.centroids[0][1], 2.0, 1e-9);
}

TEST(KMeans, KEqualsNPerfectFit) {
  Rng rng(9);
  PointSet pts{{0, 0}, {5, 5}, {9, 1}};
  KMeansConfig cfg;
  cfg.k = 3;
  const auto res = KMeans::fit(pts, cfg, rng);
  EXPECT_NEAR(res.sse, 0.0, 1e-12);
}

TEST(KMeans, DuplicatePointsHandled) {
  Rng rng(10);
  PointSet pts;
  for (int i = 0; i < 10; ++i) pts.add({1.0, 1.0});
  KMeansConfig cfg;
  cfg.k = 3;
  const auto res = KMeans::fit(pts, cfg, rng);
  EXPECT_NEAR(res.sse, 0.0, 1e-12);
}

TEST(KMeans, Preconditions) {
  Rng rng(11);
  PointSet pts{{1, 1}};
  KMeansConfig cfg;
  cfg.k = 2;
  EXPECT_THROW(KMeans::fit(pts, cfg, rng), ContractError);  // k > n
  cfg.k = 0;
  EXPECT_THROW(KMeans::fit(pts, cfg, rng), ContractError);
  EXPECT_THROW((PointSet{{1, 1}, {1}}), ContractError);  // ragged
}

TEST(KMeans, PredictNearestCentroid) {
  const PointSet centroids{{0, 0}, {10, 10}};
  const PointSet queries{{1, 1}, {9, 9}};
  EXPECT_EQ(KMeans::predict(centroids, queries[0]), 0);
  EXPECT_EQ(KMeans::predict(centroids, queries[1]), 1);
}

TEST(PickElbow, HandlesPerfectFit) {
  // SSE hits zero: elbow stops there.
  EXPECT_EQ(pick_elbow({10.0, 0.0, 0.0}, 0.1), 2);
}

TEST(PickElbow, AllBigGainsPicksLast) {
  EXPECT_EQ(pick_elbow({100.0, 50.0, 25.0}, 0.1), 3);
}

TEST(PickElbow, Preconditions) {
  EXPECT_THROW(pick_elbow({}, 0.1), ContractError);
  EXPECT_THROW(pick_elbow({1.0}, 0.0), ContractError);
}

// Property: restarts never worsen the best SSE.
class KMeansRestartProp : public ::testing::TestWithParam<int> {};

TEST_P(KMeansRestartProp, MoreRestartsNoWorse) {
  Rng rng1(42), rng2(42);
  const auto pts = blobs(rng1, 20);
  KMeansConfig one;
  one.k = 3;
  one.restarts = 1;
  KMeansConfig many = one;
  many.restarts = GetParam();
  const double sse_one = KMeans::fit(pts, one, rng1).sse;
  Rng rng3(42);
  const auto pts2 = blobs(rng3, 20);
  const double sse_many = KMeans::fit(pts2, many, rng3).sse;
  EXPECT_LE(sse_many, sse_one + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Restarts, KMeansRestartProp,
                         ::testing::Values(2, 4, 8));

// --- the bounded fit against plain Lloyd ---

// Plain Lloyd as the unbounded implementation ran it: k-means++ seeding
// through Rng::weighted_index, a full k-way scan per point per iteration,
// and a final scan. The bounded fit must reproduce it bit for bit.
namespace reference {

double sq_dist(const double* a, const double* b, std::size_t dims) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

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

void seed_plusplus(const PointSet& points, std::size_t k, Rng& rng,
                   PointSet& centroids) {
  const std::size_t n = points.size();
  const std::size_t dims = points.dims();
  const auto take = [&](std::size_t c, std::size_t i) {
    std::copy_n(points[i].data(), dims, centroids[c].data());
  };
  take(0, static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  for (std::size_t c = 1; c < k; ++c) {
    const double* newest = centroids[c - 1].data();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], sq_dist(points[i].data(), newest, dims));
      total += d2[i];
    }
    take(c, total <= 0.0 ? 0 : rng.weighted_index(d2));
  }
}

/// Counts, across every run of every fit, the clusters that had points
/// in one update step and none in a later one.
int emptied_clusters = 0;
/// Counts the points that moved to a lower-index centroid exactly as far
/// away as the one they left: only the tie rule moved them.
int tie_moves = 0;

void lloyd(const PointSet& points, const KMeansConfig& cfg,
           KMeansResult& res) {
  const std::size_t n = points.size();
  const std::size_t dims = points.dims();
  const auto k = static_cast<std::size_t>(cfg.k);
  const double* pts = points.data();
  double* cen = res.centroids.data();
  std::vector<double> sums(k * dims);
  std::vector<std::size_t> counts(k);
  std::vector<bool> ever_filled(k, false);
  res.iterations = 0;
  res.converged = false;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      const int was = res.assignment[i];
      const double* p = pts + i * dims;
      res.assignment[i] = nearest(cen, k, p, dims);
      const auto now = static_cast<std::size_t>(res.assignment[i]);
      if (iter > 0 && res.assignment[i] != was &&
          sq_dist(cen + now * dims, p, dims) ==
              sq_dist(cen + static_cast<std::size_t>(was) * dims, p, dims)) {
        ++tie_moves;
      }
    }
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(res.assignment[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) {
        sums[c * dims + d] += pts[i * dims + d];
      }
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        if (ever_filled[c]) ++emptied_clusters;
        ever_filled[c] = false;
        continue;
      }
      ever_filled[c] = true;
      double* centroid = cen + c * dims;
      double acc = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double next =
            sums[c * dims + d] / static_cast<double>(counts[c]);
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
  res.sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * dims;
    const int c = nearest(cen, k, p, dims);
    res.assignment[i] = c;
    res.sse += sq_dist(p, cen + static_cast<std::size_t>(c) * dims, dims);
  }
}

KMeansResult fit(const PointSet& points, const KMeansConfig& cfg, Rng& rng) {
  const auto k = static_cast<std::size_t>(cfg.k);
  KMeansResult best, run;
  for (KMeansResult* r : {&best, &run}) {
    r->centroids = PointSet(k, points.dims());
    r->assignment.resize(points.size());
  }
  best.sse = std::numeric_limits<double>::max();
  for (int r = 0; r < cfg.restarts; ++r) {
    seed_plusplus(points, k, rng, run.centroids);
    lloyd(points, cfg, run);
    if (run.sse < best.sse) std::swap(best, run);
  }
  return best;
}

}  // namespace reference

/// Fit `points` with both implementations from the same seed and require
/// the same bits everywhere, the generators' final states included.
void expect_matches_reference(const PointSet& points, int k,
                              std::uint64_t seed, int restarts = 3) {
  KMeansConfig cfg;
  cfg.k = k;
  cfg.restarts = restarts;
  Rng rng_fit(seed), rng_ref(seed);
  const KMeansResult got = KMeans::fit(points, cfg, rng_fit);
  const KMeansResult want = reference::fit(points, cfg, rng_ref);
  const std::string where = std::to_string(points.size()) + " points of " +
                            std::to_string(points.dims()) + ", k " +
                            std::to_string(k) + ", seed " +
                            std::to_string(seed);
  ASSERT_EQ(got.centroids.size(), want.centroids.size()) << where;
  for (std::size_t c = 0; c < want.centroids.size(); ++c) {
    for (std::size_t d = 0; d < points.dims(); ++d) {
      EXPECT_EQ(got.centroids[c][d], want.centroids[c][d])
          << where << ", centroid " << c << " dim " << d;
    }
  }
  EXPECT_EQ(got.assignment, want.assignment) << where;
  EXPECT_EQ(got.sse, want.sse) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_EQ(rng_fit.next_u64(), rng_ref.next_u64()) << where;
}

/// `n` points of width `dims`, each coordinate `offset + scale * u` for
/// uniform u, or `offset + scale * (integer in [0, grid))` when `grid` is
/// nonzero (small integer grids make exact distance ties).
PointSet random_points(std::size_t n, std::size_t dims, std::uint64_t seed,
                       double scale = 1.0, double offset = 0.0,
                       int grid = 0) {
  Rng rng(seed);
  PointSet pts;
  std::vector<double> p(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : p) {
      const double u = grid > 0 ? static_cast<double>(rng.uniform_int(
                                      0, grid - 1))
                                : rng.uniform();
      v = offset + scale * u;
    }
    pts.add(p);
  }
  return pts;
}

TEST(KMeans, BoundedMatchesPlainOnTiesAndDuplicates) {
  // Two centroids with a point midway between them: the lower index wins.
  expect_matches_reference(PointSet{{0, 0}, {2, 0}, {1, 0}, {1, 0}}, 2, 3);
  expect_matches_reference(
      PointSet{{0, 0}, {0, 0}, {4, 0}, {4, 0}, {2, 0}, {2, 2}, {2, -2}}, 2,
      4);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // On a 3-wide integer grid most distances tie with another.
    const auto pts = random_points(60, 2, seed, 1.0, 0.0, 3);
    for (int k : {2, 3, 4, 6}) expect_matches_reference(pts, k, seed + 100);
  }
}

// On a line, a point midway between two centroids sits exactly half
// their gap from each, so a bound test without its margin would keep the
// point where it was instead of moving it to the lower index.
TEST(KMeans, BoundedMatchesPlainOnMidpointTies) {
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 2000 && cases < 10; ++seed) {
    const auto pts = random_points(10, 1, seed, 1.0, 0.0, 9);
    for (int k : {2, 3, 4}) {
      KMeansConfig cfg;
      cfg.k = k;
      cfg.restarts = 1;
      Rng rng(seed);
      reference::tie_moves = 0;
      reference::fit(pts, cfg, rng);
      if (reference::tie_moves == 0) continue;
      ++cases;
      expect_matches_reference(pts, k, seed, 1);
    }
  }
  EXPECT_EQ(cases, 10);
}

TEST(KMeans, BoundedMatchesPlainAtKOneAndKEqualsN) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(12, 3, seed);
    expect_matches_reference(pts, 1, seed);
    expect_matches_reference(pts, 12, seed);
    // Duplicates with k = n: seeding runs out of positive weights.
    const auto dup = random_points(9, 2, seed, 1.0, 0.0, 2);
    expect_matches_reference(dup, 9, seed);
  }
}

TEST(KMeans, BoundedMatchesPlainAtEachWidth) {
  for (std::size_t dims : {1u, 3u, 4u, 7u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const auto pts = random_points(150, dims, seed * 31 + dims);
      for (int k : {2, 5, 8}) expect_matches_reference(pts, k, seed, 4);
    }
  }
}

TEST(KMeans, BoundedMatchesPlainAtTinyAndHugeScales) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [scale, offset] :
         {std::pair{1e-9, 0.0}, std::pair{1e-9, 1e-9}, std::pair{1e6, 0.0},
          std::pair{1.0, 1e6}, std::pair{1e6, 1e6}}) {
      const auto pts = random_points(120, 4, seed, scale, offset);
      for (int k : {3, 7}) expect_matches_reference(pts, k, seed);
    }
  }
}

TEST(KMeans, BoundedMatchesPlainWhenClusterEmpties) {
  // Seeded at 3.5, 4 and 8.1, the middle cluster takes {4, 6} and moves to
  // 5 while its neighbours move to 3.5 and 6.6; then 4 and 6 both leave
  // it. Widths 1 and 4 (zero-padded) run both distance loops. Seeds are
  // searched for runs where plain Lloyd empties a cluster that had points.
  const double xs[]{3.5, 4.0, 6.0, 6.1, 6.1, 6.1, 8.1};
  for (std::size_t dims : {1u, 4u}) {
    PointSet pts;
    for (double x : xs) {
      std::vector<double> p(dims, 0.0);
      p[0] = x;
      pts.add(p);
    }
    int cases = 0;
    for (std::uint64_t seed = 1; seed <= 500 && cases < 5; ++seed) {
      KMeansConfig cfg;
      cfg.k = 3;
      cfg.restarts = 1;
      Rng rng(seed);
      reference::emptied_clusters = 0;
      reference::fit(pts, cfg, rng);
      if (reference::emptied_clusters == 0) continue;
      ++cases;
      expect_matches_reference(pts, 3, seed, 1);
    }
    EXPECT_EQ(cases, 5) << dims;
  }
}

// --- the elbow sweep and final fit pinned to fixed bits ---

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// A K-means change that moves one floating-point operation (a distance's
// summation order, an argmin tie, a centroid sum, a seeding minimum) moves
// every trained profile, bundle and fleet report. This digest pins
// sse_curve and the final fit on real profiling points, the way
// FrameProfiler runs them. Re-pin only on purpose; it last moved when the
// normal sampler became a ziggurat, which moves the profiling points.
TEST(KMeans, FitMatchesParentDigest) {
  const game::GameSpec spec = game::make_dota2();
  Rng rng(5 ^ spec.id.value);
  const ResourceVector scale = default_norm_scale();
  PointSet points;
  for (int r = 0; r < 8; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    const auto player = static_cast<std::uint64_t>(rng.uniform_int(1, 12));
    const auto trace =
        game::profile_run(spec, script, player, rng.next_u64());
    for (const auto& fs : trace.to_frame_slices()) {
      std::array<double, kNumDims> p{};
      for (std::size_t d = 0; d < kNumDims; ++d) {
        p[d] = fs.mean_usage.at(d) / scale.at(d);
      }
      points.add(p);
    }
  }
  const auto curve = sse_curve(points, 8, rng, 6);
  KMeansConfig cfg;
  cfg.k = pick_elbow(curve, 0.30);
  cfg.restarts = 6;
  const auto km = KMeans::fit(points, cfg, rng);

  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, curve.data(), curve.size() * sizeof(double));
  for (std::size_t c = 0; c < km.centroids.size(); ++c) {
    h = fnv1a(h, km.centroids[c].data(), points.dims() * sizeof(double));
  }
  h = fnv1a(h, km.assignment.data(), km.assignment.size() * sizeof(int));
  h = fnv1a(h, &km.sse, sizeof km.sse);
  h = fnv1a(h, &km.iterations, sizeof km.iterations);
  EXPECT_EQ(h, 7777724103817890212ull)
      << points.size() << " points, k = " << cfg.k;
}

}  // namespace
}  // namespace cocg::ml
