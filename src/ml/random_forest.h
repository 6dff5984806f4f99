// Random forest: bootstrap-bagged Gini trees with feature subsampling,
// majority vote (the paper's RF predictor option, §IV-B1).
#pragma once

#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/tree.h"

namespace cocg::ml {

struct RandomForestConfig {
  int n_trees = 25;
  TreeConfig tree;  ///< tree.max_features==0 → sqrt(#features)
};

class RandomForestClassifier {
 public:
  explicit RandomForestClassifier(RandomForestConfig cfg = {}) : cfg_(cfg) {}

  void fit(const Dataset& data, Rng& rng);

  bool trained() const { return !trees_.empty(); }
  int predict(const FeatureRow& x) const;
  std::vector<int> predict_all(const std::vector<FeatureRow>& xs) const;

  /// Averaged leaf probabilities across trees.
  std::vector<double> predict_proba(const FeatureRow& x) const;

  std::size_t tree_count() const { return trees_.size(); }
  int num_classes() const { return num_classes_; }
  const std::vector<DecisionTreeClassifier>& trees() const { return trees_; }

 private:
  RandomForestConfig cfg_;
  std::vector<DecisionTreeClassifier> trees_;
  int num_classes_ = 0;
};

}  // namespace cocg::ml
