#include "ml/gbdt.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "ml/compiled.h"
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

/// Non-axis-aligned pattern where boosting shines.
Dataset diagonal(Rng& rng, int n = 200) {
  Dataset d({"x", "y"});
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0, 10), y = rng.uniform(0, 10);
    d.add({x, y}, x + y > 10.0 ? 1 : 0);
  }
  return d;
}

TEST(Gbdt, LearnsBlobs) {
  Rng rng(1);
  const Dataset d = blobs(rng);
  GbdtClassifier g;
  g.fit(d);
  EXPECT_TRUE(g.trained());
  EXPECT_EQ(g.num_classes(), 3);
  EXPECT_EQ(g.rounds_trained(), 40);
  EXPECT_GE(accuracy(d.labels(), g.predict_all(d.features())), 0.97);
}

TEST(Gbdt, LearnsDiagonal) {
  Rng rng(3);
  const Dataset d = diagonal(rng);
  GbdtClassifier g;
  g.fit(d);
  EXPECT_GE(accuracy(d.labels(), g.predict_all(d.features())), 0.95);
}

TEST(Gbdt, ProbaIsSoftmax) {
  Rng rng(5);
  const Dataset d = blobs(rng);
  GbdtClassifier g;
  g.fit(d);
  const auto p = g.predict_proba({0.0, 0.0});
  ASSERT_EQ(p.size(), 3u);
  double total = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(p[0], 0.7);
}

TEST(Gbdt, BinaryProblemWorks) {
  Dataset d({"x"});
  for (int i = 0; i < 30; ++i) d.add({double(i)}, i < 15 ? 0 : 1);
  GbdtClassifier g;
  g.fit(d);
  EXPECT_EQ(g.predict({3.0}), 0);
  EXPECT_EQ(g.predict({25.0}), 1);
}

TEST(Gbdt, MoreRoundsImproveTrainFit) {
  Rng rng(8);
  const Dataset d = diagonal(rng, 300);
  GbdtConfig few;
  few.n_rounds = 2;
  GbdtConfig many;
  many.n_rounds = 60;
  GbdtClassifier g1(few), g2(many);
  g1.fit(d);
  g2.fit(d);
  const double a1 = accuracy(d.labels(), g1.predict_all(d.features()));
  const double a2 = accuracy(d.labels(), g2.predict_all(d.features()));
  EXPECT_GE(a2 + 1e-12, a1);
}

TEST(Gbdt, PredictBeforeFitThrows) {
  GbdtClassifier g;
  EXPECT_THROW(g.predict({1.0}), ContractError);
}

TEST(Gbdt, ConfigValidation) {
  Dataset d({"x"});
  d.add({1.0}, 0);
  GbdtConfig bad;
  bad.learning_rate = 0.0;
  GbdtClassifier g(bad);
  EXPECT_THROW(g.fit(d), ContractError);
  bad.learning_rate = 0.1;
  bad.n_rounds = 0;
  GbdtClassifier g2(bad);
  EXPECT_THROW(g2.fit(d), ContractError);
}

// --- fit_model: the one entry point over all three learners ---

TEST(ClassifierFacade, FactoryProducesAllKinds) {
  Rng rng(12);
  const Dataset d = blobs(rng, 10);
  for (ModelKind kind :
       {ModelKind::kDtc, ModelKind::kRf, ModelKind::kGbdt}) {
    Rng fit(12);
    const auto c = fit_model(kind, d, fit);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->kind(), kind);
    EXPECT_TRUE(c->trained());
  }
}

TEST(ClassifierFacade, KindNames) {
  EXPECT_STREQ(model_kind_name(ModelKind::kDtc), "DTC");
  EXPECT_STREQ(model_kind_name(ModelKind::kRf), "RF");
  EXPECT_STREQ(model_kind_name(ModelKind::kGbdt), "GBDT");
}

class FacadeProp : public ::testing::TestWithParam<ModelKind> {};

TEST_P(FacadeProp, AllKindsLearnBlobs) {
  Rng rng(13);
  const Dataset d = blobs(rng, 40);
  Rng fit(14);
  const auto c = fit_model(GetParam(), d, fit);
  EXPECT_TRUE(c->trained());
  std::vector<int> pred;
  for (const auto& x : d.features()) pred.push_back(c->predict(x));
  EXPECT_GE(accuracy(d.labels(), pred), 0.95);
  const auto p = c->predict_proba(FeatureRow{0.0, 0.0});
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Kinds, FacadeProp,
                         ::testing::Values(ModelKind::kDtc, ModelKind::kRf,
                                           ModelKind::kGbdt));

}  // namespace
}  // namespace cocg::ml
