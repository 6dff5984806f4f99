#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>

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
// FrameProfiler runs them. Re-pin only on purpose.
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
  EXPECT_EQ(h, 9252335140691285507ull)
      << points.size() << " points, k = " << cfg.k;
}

}  // namespace
}  // namespace cocg::ml
