#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"

namespace cocg::ml {

namespace {

void softmax_inplace(std::vector<double>& scores) {
  const double mx = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (auto& s : scores) {
    s = std::exp(s - mx);
    total += s;
  }
  for (auto& s : scores) s /= total;
}

}  // namespace

void GbdtClassifier::fit(const Dataset& data) {
  COCG_EXPECTS(!data.empty());
  COCG_EXPECTS(cfg_.n_rounds >= 1);
  COCG_EXPECTS(cfg_.learning_rate > 0.0 && cfg_.learning_rate <= 1.0);

  const auto k = static_cast<std::size_t>(data.num_classes());
  const std::size_t n = data.size();
  CompiledForest::Data d;
  d.kind = ModelKind::kGbdt;
  d.num_classes = data.num_classes();
  d.num_features = 1;
  d.leaf_width = 1;
  d.learning_rate = cfg_.learning_rate;
  d.tree_first.push_back(0);

  // Base score = log class prior (with Laplace smoothing).
  std::vector<double> prior(k, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prior[static_cast<std::size_t>(data.y(i))] += 1.0;
  }
  d.base_score.assign(k, 0.0);
  const double total = static_cast<double>(n) + static_cast<double>(k);
  for (std::size_t c = 0; c < k; ++c) {
    d.base_score[c] = std::log(prior[c] / total);
  }

  {
    // Current raw scores per row per class, and the gradient targets.
    std::vector<std::vector<double>> score(n, d.base_score);
    std::vector<std::vector<double>> residuals(k, std::vector<double>(n));
    std::vector<double> p(k);
    std::vector<double> fitted(n);
    // Every tree fits all rows on every feature, so nodes repeat across
    // trees and their sorted orders are shared.
    std::optional<SplitOrderTrie> orders;
    if (n <= SplitOrderTrie::kMaxRows) orders.emplace(n, data.num_features());
    // One tree regrown in place; each is appended to the forest as it is
    // grown.
    RegressionTree tree(cfg_.tree);

    for (int round = 0; round < cfg_.n_rounds; ++round) {
      // Gradient targets: one-hot − softmax probability.
      for (std::size_t i = 0; i < n; ++i) {
        p = score[i];
        softmax_inplace(p);
        for (std::size_t c = 0; c < k; ++c) {
          const double target = (static_cast<std::size_t>(data.y(i)) == c)
                                    ? 1.0
                                    : 0.0;
          residuals[c][i] = target - p[c];
        }
      }
      // Round-major, class-minor: tree t corrects class t % k.
      for (std::size_t c = 0; c < k; ++c) {
        tree.fit(data.features(), residuals[c],
                 orders ? &*orders : nullptr, fitted);
        append_tree(d, tree.tree());
        for (std::size_t i = 0; i < n; ++i) {
          score[i][c] += cfg_.learning_rate * fitted[i];
        }
      }
    }
  }
  forest_ = CompiledForest(std::move(d));
}

int GbdtClassifier::predict(const FeatureRow& x) const {
  return forest_.predict(x);
}

std::vector<int> GbdtClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> GbdtClassifier::predict_proba(const FeatureRow& x) const {
  return forest_.predict_proba(x);
}

int GbdtClassifier::rounds_trained() const {
  return trained() ? static_cast<int>(forest_.num_trees()) / num_classes()
                   : 0;
}

}  // namespace cocg::ml
