// Parity tests for CompiledForest: compiled inference must be bit-identical
// to the tree walks of DTC, RF and a reference GBDT boosting loop, and the
// validating constructor must reject every corrupt Data variant a broken
// serializer could produce.
#include "ml/compiled.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/tree.h"

namespace cocg::ml {
namespace {

Dataset blobs(Rng& rng, int classes = 4, int n_per = 60) {
  Dataset d({"x", "y", "z"});
  for (int c = 0; c < classes; ++c) {
    const double cx = 5.0 * (c % 2), cy = 5.0 * (c / 2);
    for (int i = 0; i < n_per; ++i) {
      d.add({cx + rng.normal(0, 1.2), cy + rng.normal(0, 1.2),
             rng.uniform(0.0, 1.0)},
            c);
    }
  }
  return d;
}

std::vector<FeatureRow> probe_rows(Rng& rng, std::size_t n = 200) {
  std::vector<FeatureRow> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back({rng.uniform(-2.0, 7.0), rng.uniform(-2.0, 7.0),
                    rng.uniform(0.0, 1.0)});
  }
  return rows;
}

/// EXPECT_EQ on doubles on purpose: the contract is bit-identity, not
/// tolerance.
template <typename Legacy>
void expect_bit_identical(const Legacy& legacy, const CompiledForest& c,
                          const std::vector<FeatureRow>& rows) {
  const auto k = static_cast<std::size_t>(c.num_classes());
  std::vector<double> scalar(k, 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto want_proba = legacy.predict_proba(rows[i]);
    const int want_label = legacy.predict(rows[i]);
    EXPECT_EQ(c.predict(rows[i]), want_label) << "row " << i;
    const auto got = c.predict_proba(rows[i]);
    ASSERT_EQ(got.size(), want_proba.size());
    c.predict_proba_into(rows[i], scalar);
    for (std::size_t cl = 0; cl < k; ++cl) {
      EXPECT_EQ(got[cl], want_proba[cl]) << "row " << i << " class " << cl;
      EXPECT_EQ(scalar[cl], want_proba[cl]) << "row " << i << " class " << cl;
    }
  }
}

class CompiledParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledParity, DtcBitIdentical) {
  Rng rng(GetParam());
  const Dataset d = blobs(rng);
  DecisionTreeClassifier dtc(TreeConfig{/*max_depth=*/8});
  Rng fit(GetParam() + 1);
  dtc.fit(d, fit);
  const CompiledForest c = CompiledForest::compile(dtc);
  EXPECT_EQ(c.kind(), ModelKind::kDtc);
  EXPECT_EQ(c.num_trees(), 1u);
  expect_bit_identical(dtc, c, probe_rows(rng));
}

TEST_P(CompiledParity, RfBitIdentical) {
  Rng rng(GetParam());
  const Dataset d = blobs(rng);
  RandomForestClassifier rf;
  Rng fit(GetParam() + 1);
  rf.fit(d, fit);
  const CompiledForest c = CompiledForest::compile(rf);
  EXPECT_EQ(c.kind(), ModelKind::kRf);
  EXPECT_EQ(c.num_trees(), 25u);
  expect_bit_identical(rf, c, probe_rows(rng));
}

/// The boosting loop as a plain reference: one RegressionTree per round
/// and class, grown without a split-order trie, with scores updated and
/// predictions made by tree walks. GbdtClassifier fits straight into a
/// CompiledForest, through a trie and the grower's fitted values; both
/// must give the same bits.
class ReferenceGbdt {
 public:
  ReferenceGbdt(const Dataset& d, const GbdtConfig& cfg)
      : lr_(cfg.learning_rate) {
    const auto k = static_cast<std::size_t>(d.num_classes());
    std::vector<double> prior(k, 1.0);
    for (std::size_t i = 0; i < d.size(); ++i) {
      prior[static_cast<std::size_t>(d.y(i))] += 1.0;
    }
    const double total = static_cast<double>(d.size() + k);
    for (double c : prior) base_.push_back(std::log(c / total));
    std::vector<std::vector<double>> score(d.size(), base_);
    for (int round = 0; round < cfg.n_rounds; ++round) {
      std::vector<std::vector<double>> residual(k);
      for (std::size_t i = 0; i < d.size(); ++i) {
        std::vector<double> p = score[i];
        softmax(p);
        for (std::size_t c = 0; c < k; ++c) {
          residual[c].push_back(
              (static_cast<std::size_t>(d.y(i)) == c ? 1.0 : 0.0) - p[c]);
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        trees_.emplace_back(cfg.tree);
        trees_.back().fit(d.features(), residual[c]);
      }
      for (std::size_t i = 0; i < d.size(); ++i) {
        for (std::size_t c = 0; c < k; ++c) {
          score[i][c] +=
              lr_ * trees_[trees_.size() - k + c].predict(d.x(i));
        }
      }
    }
  }

  std::vector<double> predict_proba(const FeatureRow& x) const {
    std::vector<double> s = raw(x);
    softmax(s);
    return s;
  }
  int predict(const FeatureRow& x) const {
    const std::vector<double> s = raw(x);
    return static_cast<int>(std::max_element(s.begin(), s.end()) -
                            s.begin());
  }

 private:
  std::vector<double> raw(const FeatureRow& x) const {
    std::vector<double> s = base_;
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      s[t % s.size()] += lr_ * trees_[t].predict(x);
    }
    return s;
  }
  static void softmax(std::vector<double>& s) {
    const double mx = *std::max_element(s.begin(), s.end());
    double total = 0.0;
    for (double& v : s) {
      v = std::exp(v - mx);
      total += v;
    }
    for (double& v : s) v /= total;
  }

  double lr_;
  std::vector<double> base_;
  std::vector<RegressionTree> trees_;  ///< round-major, class-minor
};

TEST_P(CompiledParity, GbdtBitIdentical) {
  Rng rng(GetParam());
  const Dataset d = blobs(rng);
  GbdtClassifier gbdt;
  gbdt.fit(d);
  const CompiledForest& c = gbdt.forest();
  EXPECT_EQ(c.kind(), ModelKind::kGbdt);
  std::vector<FeatureRow> rows = probe_rows(rng);
  rows.insert(rows.end(), d.features().begin(), d.features().end());
  expect_bit_identical(ReferenceGbdt(d, GbdtConfig{}), c, rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledParity,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

CompiledForest::Data tiny_valid() {
  // One tree: root splits f0 <= 0.5, two leaves with 2-class probas.
  CompiledForest::Data d;
  d.kind = ModelKind::kDtc;
  d.num_classes = 2;
  d.num_features = 1;
  d.leaf_width = 2;
  d.tree_first = {0, 3};
  d.feature = {0, -1, -1};
  d.threshold = {0.5, 0.0, 0.0};
  d.left = {1, 0, 1};  // leaves index the leaf table
  d.right = {2, 0, 0};
  d.leaf_label = {0, 1};
  d.leaf_data = {1.0, 0.0, 0.0, 1.0};
  return d;
}

TEST(CompiledForestValidation, AcceptsWellFormed) {
  const CompiledForest c(tiny_valid());
  EXPECT_TRUE(c.trained());
  EXPECT_EQ(c.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(c.predict(std::vector<double>{1.0}), 1);
}

TEST(CompiledForestValidation, RejectsCorruptData) {
  {
    auto d = tiny_valid();
    d.feature = {0, -1};  // array length disagreement
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.left[0] = 0;  // child not strictly after parent → cycle
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.right[0] = 7;  // child beyond the tree
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.feature[0] = 3;  // split feature out of range
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.left[1] = 9;  // leaf index beyond the leaf table
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.leaf_label[0] = 5;  // label outside [0, num_classes)
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.tree_first = {0, 2, 3};  // DTC must be a single tree
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.leaf_data.pop_back();  // not a multiple of leaf_width
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
  {
    auto d = tiny_valid();
    d.kind = ModelKind::kGbdt;  // GBDT needs lr/base_score/1-wide leaves
    EXPECT_THROW(CompiledForest{d}, std::runtime_error);
  }
}

TEST(ModelKindNames, RoundTrip) {
  for (ModelKind k : {ModelKind::kDtc, ModelKind::kRf, ModelKind::kGbdt}) {
    ModelKind back{};
    ASSERT_TRUE(parse_model_kind(model_kind_name(k), back));
    EXPECT_EQ(back, k);
  }
  ModelKind out{};
  EXPECT_FALSE(parse_model_kind("svm", out));
}

}  // namespace
}  // namespace cocg::ml
