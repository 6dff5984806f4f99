#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>

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

  num_classes_ = data.num_classes();
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t n = data.size();
  trees_.clear();

  // Base score = log class prior (with Laplace smoothing).
  std::vector<double> prior(k, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prior[static_cast<std::size_t>(data.y(i))] += 1.0;
  }
  base_score_.assign(k, 0.0);
  const double total = static_cast<double>(n) + static_cast<double>(k);
  for (std::size_t c = 0; c < k; ++c) {
    base_score_[c] = std::log(prior[c] / total);
  }

  // Current raw scores per row per class, and the gradient targets.
  std::vector<std::vector<double>> score(n, base_score_);
  std::vector<std::vector<double>> residuals(k, std::vector<double>(n));
  std::vector<double> p(k);
  // Every tree fits all rows on every feature, so the nodes near the root
  // repeat across trees and their sorted orders are shared.
  SplitOrderTrie orders;

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

    std::vector<RegressionTree> round_trees;
    round_trees.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      RegressionTree tree(cfg_.tree);
      tree.fit(data.features(), residuals[c], &orders);
      round_trees.push_back(std::move(tree));
    }

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < k; ++c) {
        score[i][c] += cfg_.learning_rate * round_trees[c].predict(data.x(i));
      }
    }
    trees_.push_back(std::move(round_trees));
  }
}

std::vector<double> GbdtClassifier::raw_scores(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::vector<double> s = base_score_;
  for (const auto& round : trees_) {
    for (std::size_t c = 0; c < s.size(); ++c) {
      s[c] += cfg_.learning_rate * round[c].predict(x);
    }
  }
  return s;
}

int GbdtClassifier::predict(const FeatureRow& x) const {
  const auto s = raw_scores(x);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

std::vector<int> GbdtClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> GbdtClassifier::predict_proba(const FeatureRow& x) const {
  auto s = raw_scores(x);
  softmax_inplace(s);
  return s;
}

int GbdtClassifier::rounds_trained() const {
  return static_cast<int>(trees_.size());
}

}  // namespace cocg::ml
