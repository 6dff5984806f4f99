#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "ml/metrics.h"

namespace cocg::ml {
namespace {

Dataset blobs(Rng& rng, int n_per = 50) {
  Dataset d({"x", "y"});
  const double centers[3][2] = {{0, 0}, {8, 0}, {0, 8}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < n_per; ++i) {
      d.add({centers[c][0] + rng.normal(0, 0.8),
             centers[c][1] + rng.normal(0, 0.8)},
            c);
    }
  }
  return d;
}

TEST(RandomForest, LearnsBlobs) {
  Rng rng(1);
  const Dataset d = blobs(rng);
  RandomForestClassifier rf;
  Rng fit(2);
  rf.fit(d, fit);
  EXPECT_TRUE(rf.trained());
  EXPECT_EQ(rf.tree_count(), 25u);
  EXPECT_EQ(rf.num_classes(), 3);
  const auto pred = rf.predict_all(d.features());
  EXPECT_GE(accuracy(d.labels(), pred), 0.97);
}

TEST(RandomForest, SingleTreeWorks) {
  Rng rng(3);
  const Dataset d = blobs(rng, 20);
  RandomForestConfig cfg;
  cfg.n_trees = 1;
  RandomForestClassifier rf(cfg);
  Rng fit(4);
  rf.fit(d, fit);
  EXPECT_EQ(rf.tree_count(), 1u);
  EXPECT_GE(accuracy(d.labels(), rf.predict_all(d.features())), 0.9);
}

TEST(RandomForest, ProbaAveragesTrees) {
  Rng rng(5);
  const Dataset d = blobs(rng);
  RandomForestClassifier rf;
  Rng fit(6);
  rf.fit(d, fit);
  const auto p = rf.predict_proba({0.0, 0.0});
  ASSERT_EQ(p.size(), 3u);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(p[0], 0.8);
}

TEST(RandomForest, DeterministicGivenSeed) {
  Rng rng(7);
  const Dataset d = blobs(rng, 20);
  RandomForestClassifier a, b;
  Rng fit1(99), fit2(99);
  a.fit(d, fit1);
  b.fit(d, fit2);
  for (double x = -2.0; x < 10.0; x += 0.7) {
    EXPECT_EQ(a.predict({x, x}), b.predict({x, x}));
  }
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForestClassifier rf;
  EXPECT_THROW(rf.predict({1.0, 2.0}), ContractError);
  EXPECT_THROW(rf.predict_proba({1.0, 2.0}), ContractError);
}

TEST(RandomForest, ConfigValidation) {
  Rng rng(8);
  const Dataset d = blobs(rng, 10);
  RandomForestConfig bad;
  bad.n_trees = 0;
  RandomForestClassifier rf(bad);
  Rng fit(9);
  EXPECT_THROW(rf.fit(d, fit), ContractError);
}

// Property: more trees → training accuracy does not collapse.
class ForestSizeProp : public ::testing::TestWithParam<int> {};

TEST_P(ForestSizeProp, StableAcrossSizes) {
  Rng rng(12);
  const Dataset d = blobs(rng, 30);
  RandomForestConfig cfg;
  cfg.n_trees = GetParam();
  RandomForestClassifier rf(cfg);
  Rng fit(13);
  rf.fit(d, fit);
  EXPECT_GE(accuracy(d.labels(), rf.predict_all(d.features())), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeProp,
                         ::testing::Values(3, 10, 40));

}  // namespace
}  // namespace cocg::ml
