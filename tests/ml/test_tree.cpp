#include "ml/tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "ml/metrics.h"

namespace cocg::ml {
namespace {

/// XOR-ish dataset a depth-2 tree solves exactly.
Dataset xor_data() {
  Dataset d({"x", "y"});
  for (double x : {0.0, 1.0}) {
    for (double y : {0.0, 1.0}) {
      for (int rep = 0; rep < 5; ++rep) {
        d.add({x, y}, (x != y) ? 1 : 0);
      }
    }
  }
  return d;
}

Dataset three_class_blobs(Rng& rng, int n_per = 40) {
  Dataset d({"x", "y"});
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < n_per; ++i) {
      d.add({centers[c][0] + rng.normal(0, 0.5),
             centers[c][1] + rng.normal(0, 0.5)},
            c);
    }
  }
  return d;
}

TEST(DecisionTree, FitsXorExactly) {
  DecisionTreeClassifier tree;
  tree.fit(xor_data());
  EXPECT_TRUE(tree.trained());
  EXPECT_EQ(tree.predict({0, 0}), 0);
  EXPECT_EQ(tree.predict({1, 1}), 0);
  EXPECT_EQ(tree.predict({0, 1}), 1);
  EXPECT_EQ(tree.predict({1, 0}), 1);
}

TEST(DecisionTree, SeparatesBlobs) {
  Rng rng(1);
  const Dataset d = three_class_blobs(rng);
  DecisionTreeClassifier tree;
  tree.fit(d);
  const auto pred = tree.predict_all(d.features());
  EXPECT_GE(accuracy(d.labels(), pred), 0.99);
}

TEST(DecisionTree, PureDatasetSingleLeaf) {
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) d.add({double(i)}, 2);
  DecisionTreeClassifier tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_EQ(tree.predict({100.0}), 2);
}

TEST(DecisionTree, MaxDepthRespected) {
  Rng rng(2);
  const Dataset d = three_class_blobs(rng);
  TreeConfig cfg;
  cfg.max_depth = 2;
  DecisionTreeClassifier tree(cfg);
  tree.fit(d);
  EXPECT_LE(tree.depth(), 3);  // root at depth 1 + 2 split levels
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  Dataset d({"x"});
  // 4 samples, alternating labels: a leaf of 1 would be needed for purity.
  d.add({1.0}, 0);
  d.add({2.0}, 1);
  d.add({3.0}, 0);
  d.add({4.0}, 1);
  TreeConfig cfg;
  cfg.min_samples_leaf = 2;
  DecisionTreeClassifier tree(cfg);
  tree.fit(d);
  // Tree exists and predicts a valid class.
  const int p = tree.predict({2.5});
  EXPECT_TRUE(p == 0 || p == 1);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.predict({1.0}), ContractError);
}

TEST(DecisionTree, FitEmptyThrows) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.fit(Dataset{}), ContractError);
}

TEST(DecisionTree, ProbaSumsToOne) {
  Rng rng(3);
  const Dataset d = three_class_blobs(rng);
  DecisionTreeClassifier tree;
  tree.fit(d);
  const auto p = tree.predict_proba({0.0, 0.0});
  ASSERT_EQ(p.size(), 3u);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(p[0], 0.9);  // near blob 0
}

TEST(DecisionTree, TiedFeatureValuesNoSplit) {
  Dataset d({"x"});
  d.add({1.0}, 0);
  d.add({1.0}, 1);  // inseparable
  DecisionTreeClassifier tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(DecisionTree, FeatureSubsamplingStillLearns) {
  Rng rng(4);
  const Dataset d = three_class_blobs(rng);
  TreeConfig cfg;
  cfg.max_features = 1;
  DecisionTreeClassifier tree(cfg);
  Rng fit_rng(5);
  tree.fit(d, fit_rng);
  const auto pred = tree.predict_all(d.features());
  EXPECT_GE(accuracy(d.labels(), pred), 0.9);
}

// Fitting on row indices (repeats allowed, as in a bootstrap sample) grows
// exactly the tree a copy of those rows grows.
TEST(DecisionTree, RowIndicesMatchCopiedRows) {
  Rng rng(7);
  const Dataset d = three_class_blobs(rng);
  const std::vector<std::size_t> rows = {0, 0, 5, 41, 41, 41, 90, 119, 3, 60};
  Dataset copy({"x", "y"});
  for (std::size_t r : rows) copy.add(d.x(r), d.y(r));
  TreeConfig cfg;
  cfg.max_features = 1;
  DecisionTreeClassifier on_rows(cfg), on_copy(cfg);
  Rng r1(8), r2(8);
  on_rows.fit(d, rows, r1);
  on_copy.fit(copy, r2);
  EXPECT_EQ(on_rows.node_count(), on_copy.node_count());
  for (const auto& x : d.features()) {
    EXPECT_EQ(on_rows.predict_proba(x), on_copy.predict_proba(x));
  }
  EXPECT_THROW(on_rows.fit(d, {0, d.size()}, r1), ContractError);
}

// --- RegressionTree ---

TEST(RegressionTree, FitsStepFunction) {
  std::vector<FeatureRow> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({double(i)});
    y.push_back(i < 10 ? 1.0 : 5.0);
  }
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_NEAR(tree.predict({3.0}), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict({15.0}), 5.0, 1e-9);
}

TEST(RegressionTree, ConstantTargetSingleLeaf) {
  std::vector<FeatureRow> x{{1}, {2}, {3}};
  std::vector<double> y{7.0, 7.0, 7.0};
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({42.0}), 7.0);
}

TEST(RegressionTree, ApproximatesLinear) {
  std::vector<FeatureRow> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({double(i)});
    y.push_back(2.0 * i);
  }
  TreeConfig cfg;
  cfg.max_depth = 8;
  RegressionTree tree(cfg);
  tree.fit(x, y);
  // Piecewise-constant approximation should be close at interior points.
  EXPECT_NEAR(tree.predict({50.0}), 100.0, 5.0);
}

// GBDT fits its trees through one SplitOrderTrie; a node that replays its
// recorded sorted orders must grow exactly the tree a fresh sort grows, at
// every depth.
TEST(RegressionTree, SplitOrderTrieLeavesFitsUnchanged) {
  Rng rng(8);
  std::vector<FeatureRow> x;
  for (int i = 0; i < 300; ++i) {
    // Coarse values, so sorts meet many ties.
    x.push_back({double(rng.uniform_int(0, 6)), double(rng.uniform_int(0, 3)),
                 rng.normal(0, 1)});
  }
  TreeConfig cfg;
  cfg.max_depth = 6;
  cfg.min_samples_split = 4;
  cfg.min_samples_leaf = 2;
  SplitOrderTrie trie(x.size(), x[0].size());
  std::vector<std::vector<double>> targets;
  for (int t = 0; t < 12; ++t) {
    std::vector<double> y;
    for (const auto& row : x) {
      y.push_back(row[static_cast<std::size_t>(t % 3)] * (t + 1) +
                  rng.normal(0, 0.5));
    }
    RegressionTree plain(cfg), cached(cfg);
    plain.fit(x, y);
    cached.fit(x, y, &trie);
    ASSERT_EQ(plain.node_count(), cached.node_count()) << "tree " << t;
    for (std::size_t i = 0; i < plain.node_count(); ++i) {
      const TreeNode& a = plain.tree().nodes[i];
      const TreeNode& b = cached.tree().nodes[i];
      EXPECT_EQ(a.feature, b.feature);
      EXPECT_EQ(a.threshold, b.threshold);
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
    }
    EXPECT_EQ(plain.tree().leaf_values, cached.tree().leaf_values);
    targets.push_back(std::move(y));
  }
  const auto& nodes = trie.nodes();
  EXPECT_NE(nodes[0].orders, nullptr);
  EXPECT_GE(nodes[0].first_child, 0);

  // No depth cap: nodes at depth 4 and deeper are recorded and replayed.
  // Spoil every deep node's record, so a replay of one trips the
  // trie's shape check.
  std::vector<int> depth(nodes.size(), 0);
  std::size_t deep = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (auto c = nodes[i].first_child; c >= 0;
         c = nodes[static_cast<std::size_t>(c)].next_sibling) {
      depth[static_cast<std::size_t>(c)] = depth[i] + 1;
    }
    if (depth[i] >= 4 && nodes[i].orders != nullptr) {
      ++trie.nodes()[i].size;
      ++deep;
    }
  }
  ASSERT_GT(deep, 0u);
  std::size_t replayed = 0;
  for (const auto& y : targets) {
    RegressionTree tree(cfg);
    try {
      tree.fit(x, y, &trie);
    } catch (const ContractError&) {
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
}

// GBDT updates its scores from the leaf value the grower records for each
// training row, so that value must be the very double the tree walk
// returns, also for rows that sit exactly on a split threshold.
TEST(RegressionTree, FittedValuesMatchTreeWalk) {
  Rng rng(9);
  // Adjacent doubles: the midpoint threshold between them rounds to the
  // lower one, so those rows sit exactly on it.
  const double lo = 1.0;
  const double hi = std::nextafter(lo, 2.0);
  std::vector<FeatureRow> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({i % 2 == 0 ? lo : hi, double(rng.uniform_int(0, 5)),
                 rng.normal(0, 1)});
    y.push_back((i % 2 == 0 ? -3.0 : 3.0) + x.back()[1] + rng.normal(0, 1));
  }
  TreeConfig cfg;
  cfg.max_depth = 6;
  cfg.min_samples_split = 4;
  cfg.min_samples_leaf = 2;
  SplitOrderTrie trie(x.size(), x[0].size());
  RegressionTree tree(cfg);
  // The second fit replays the first's orders.
  for (int fit = 0; fit < 2; ++fit) {
    std::vector<double> fitted(x.size(),
                               std::numeric_limits<double>::quiet_NaN());
    tree.fit(x, y, &trie, fitted);
    std::size_t on_threshold = 0;
    for (const TreeNode& nd : tree.tree().nodes) {
      if (nd.feature < 0) continue;
      for (const auto& row : x) {
        if (row[static_cast<std::size_t>(nd.feature)] == nd.threshold) {
          ++on_threshold;
        }
      }
    }
    EXPECT_GT(on_threshold, 0u);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fitted[i]),
                std::bit_cast<std::uint64_t>(tree.predict(x[i])))
          << "row " << i << " fit " << fit;
    }
  }
}

TEST(RegressionTree, Preconditions) {
  RegressionTree tree;
  EXPECT_THROW(tree.predict({1.0}), ContractError);
  EXPECT_THROW(tree.fit({}, {}), ContractError);
  EXPECT_THROW(tree.fit({{1.0}}, {1.0, 2.0}), ContractError);
}

// Property: deeper trees never reduce training accuracy on the blobs.
class TreeDepthProp : public ::testing::TestWithParam<int> {};

TEST_P(TreeDepthProp, TrainAccuracyMonotoneEnough) {
  Rng rng(6);
  const Dataset d = three_class_blobs(rng);
  TreeConfig shallow;
  shallow.max_depth = 1;
  TreeConfig deep;
  deep.max_depth = GetParam();
  DecisionTreeClassifier t1(shallow), t2(deep);
  t1.fit(d);
  t2.fit(d);
  const double a1 = accuracy(d.labels(), t1.predict_all(d.features()));
  const double a2 = accuracy(d.labels(), t2.predict_all(d.features()));
  EXPECT_GE(a2 + 1e-12, a1);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthProp, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace cocg::ml
