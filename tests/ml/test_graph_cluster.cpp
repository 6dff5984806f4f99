#include "ml/graph_cluster.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "common/rng.h"

namespace cocg::ml {
namespace {

PointSet blobs(Rng& rng, int per_blob, double spread) {
  const double centers[3][2]{{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  PointSet pts;
  for (const auto& c : centers) {
    for (int i = 0; i < per_blob; ++i) {
      pts.add({c[0] + rng.normal(0, spread), c[1] + rng.normal(0, spread)});
    }
  }
  return pts;
}

TEST(GraphCluster, SeparatedBlobsFound) {
  Rng rng(1);
  const auto pts = blobs(rng, 30, 0.3);
  GraphClusterConfig cfg;
  cfg.epsilon = 2.0;  // blob spread ~0.3, separation 10
  const auto res = graph_cluster(pts, cfg);
  EXPECT_EQ(res.num_clusters, 3);
  // Each blob uniform.
  for (int b = 0; b < 3; ++b) {
    const int label = res.assignment[static_cast<std::size_t>(b * 30)];
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(res.assignment[static_cast<std::size_t>(b * 30 + i)], label);
    }
  }
}

TEST(GraphCluster, FixedEpsilonRespected) {
  PointSet pts{{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  GraphClusterConfig cfg;
  cfg.epsilon = 2.0;
  cfg.min_cluster_size = 1;
  const auto res = graph_cluster(pts, cfg);
  EXPECT_EQ(res.num_clusters, 2);
  EXPECT_EQ(res.assignment[0], res.assignment[1]);
  EXPECT_EQ(res.assignment[2], res.assignment[3]);
  EXPECT_NE(res.assignment[0], res.assignment[2]);
  EXPECT_DOUBLE_EQ(res.epsilon_used, 2.0);
}

TEST(GraphCluster, ChainMergesClusters) {
  // The known failure mode vs K-means: a bridge of points chains two
  // blobs into one component.
  PointSet pts;
  for (int i = 0; i < 10; ++i) pts.add({i * 1.0, 0.0});  // bridge
  GraphClusterConfig cfg;
  cfg.epsilon = 1.5;
  cfg.min_cluster_size = 1;
  const auto res = graph_cluster(pts, cfg);
  EXPECT_EQ(res.num_clusters, 1);
}

TEST(GraphCluster, TinyComponentsMerged) {
  Rng rng(2);
  auto pts = blobs(rng, 20, 0.2);
  pts.add({5.0, 5.0});  // lone outlier
  GraphClusterConfig cfg;
  cfg.epsilon = 1.0;
  cfg.min_cluster_size = 3;
  const auto res = graph_cluster(pts, cfg);
  EXPECT_EQ(res.num_clusters, 3);  // outlier absorbed
}

TEST(GraphCluster, CentroidsAreComponentMeans) {
  PointSet pts{{0, 0}, {2, 0}, {100, 0}, {102, 0}};
  GraphClusterConfig cfg;
  cfg.epsilon = 5.0;
  cfg.min_cluster_size = 1;
  const auto res = graph_cluster(pts, cfg);
  ASSERT_EQ(res.num_clusters, 2);
  std::set<double> xs;
  for (std::size_t c = 0; c < res.centroids.size(); ++c) {
    xs.insert(res.centroids[c][0]);
  }
  EXPECT_TRUE(xs.count(1.0));
  EXPECT_TRUE(xs.count(101.0));
}

TEST(GraphCluster, SinglePoint) {
  const auto res = graph_cluster({{1.0, 2.0}});
  EXPECT_EQ(res.num_clusters, 1);
  EXPECT_EQ(res.assignment[0], 0);
}

TEST(GraphCluster, Preconditions) {
  EXPECT_THROW(graph_cluster({}), ContractError);
  EXPECT_THROW(graph_cluster({{1.0}, {1.0, 2.0}}), ContractError);
}

// --- Adjusted Rand Index ---

TEST(AdjustedRand, IdenticalPartitionsOne) {
  EXPECT_DOUBLE_EQ(adjusted_rand_index({0, 0, 1, 1}, {0, 0, 1, 1}), 1.0);
  // Label permutation does not matter.
  EXPECT_DOUBLE_EQ(adjusted_rand_index({0, 0, 1, 1}, {5, 5, 2, 2}), 1.0);
}

TEST(AdjustedRand, DisagreementLowers) {
  const double ari = adjusted_rand_index({0, 0, 1, 1}, {0, 1, 0, 1});
  EXPECT_LT(ari, 0.1);
}

TEST(AdjustedRand, TrivialPartitions) {
  EXPECT_DOUBLE_EQ(adjusted_rand_index({0, 0, 0}, {0, 0, 0}), 1.0);
}

TEST(AdjustedRand, Preconditions) {
  EXPECT_THROW(adjusted_rand_index({}, {}), ContractError);
  EXPECT_THROW(adjusted_rand_index({1}, {1, 2}), ContractError);
}

TEST(AdjustedRand, KMeansBeatsGraphOnNoisyBlobs) {
  // The §V-D1 claim in miniature: with noisy, slightly-bridged blobs,
  // K-means (given K) tracks ground truth better than graph partitioning.
  Rng rng(3);
  PointSet pts;
  std::vector<int> truth;
  // Blobs close enough that threshold-connectivity chains them.
  const double centers[3][2]{{0, 0}, {3, 0}, {0, 3}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 60; ++i) {
      pts.add({centers[b][0] + rng.normal(0, 0.9),
               centers[b][1] + rng.normal(0, 0.9)});
      truth.push_back(b);
    }
  }
  KMeansConfig kcfg;
  kcfg.k = 3;
  const auto km = KMeans::fit(pts, kcfg, rng);
  const auto gc = graph_cluster(pts);
  const double ari_km = adjusted_rand_index(truth, km.assignment);
  const double ari_gc = adjusted_rand_index(truth, gc.assignment);
  EXPECT_GT(ari_km, ari_gc);
  EXPECT_GT(ari_km, 0.7);
}

}  // namespace
}  // namespace cocg::ml
