#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cocg::ml {

void RandomForestClassifier::fit(const Dataset& data, Rng& rng) {
  COCG_EXPECTS(!data.empty());
  COCG_EXPECTS(cfg_.n_trees >= 1);
  trees_.clear();
  num_classes_ = data.num_classes();

  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = static_cast<std::size_t>(
        std::max(1.0, std::sqrt(static_cast<double>(data.num_features()))));
  }

  // Each tree fits on its bootstrap row indices of `data` itself, so every
  // tree keeps the full class count even when its sample misses a class.
  for (int t = 0; t < cfg_.n_trees; ++t) {
    std::vector<std::size_t> boot(data.size());
    for (std::size_t& row : boot) {
      row = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
    }
    DecisionTreeClassifier tree(tree_cfg);
    tree.fit(data, std::move(boot), rng);
    trees_.push_back(std::move(tree));
  }
}

int RandomForestClassifier::predict(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::vector<double> votes(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    votes[static_cast<std::size_t>(tree.predict(x))] += 1.0;
  }
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<int> RandomForestClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> RandomForestClassifier::predict_proba(
    const FeatureRow& x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  std::vector<double> acc(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict_proba(x);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (auto& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

}  // namespace cocg::ml
