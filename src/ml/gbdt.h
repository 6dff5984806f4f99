// Gradient-boosted decision trees, multiclass via one-vs-all softmax
// (the paper's GBDT predictor option, §IV-B1).
//
// Standard formulation: K parallel boosting chains of shallow regression
// trees fit to the softmax gradient (residual = one-hot(y) − p), with
// shrinkage. Predictions are argmax over accumulated raw scores.
#pragma once

#include <utility>
#include <vector>

#include "ml/compiled.h"
#include "ml/dataset.h"
#include "ml/tree.h"

namespace cocg::ml {

struct GbdtConfig {
  int n_rounds = 40;
  double learning_rate = 0.2;
  TreeConfig tree{/*max_depth=*/4, /*min_samples_split=*/4,
                  /*min_samples_leaf=*/2, /*max_features=*/0};
};

/// Fits straight into a CompiledForest: each grown tree is appended to the
/// forest's arrays and freed, so a fit holds one copy of the forest.
class GbdtClassifier {
 public:
  explicit GbdtClassifier(GbdtConfig cfg = {}) : cfg_(cfg) {}

  /// Deterministic: every round fits every row on every feature.
  void fit(const Dataset& data);

  bool trained() const { return forest_.trained(); }
  int predict(const FeatureRow& x) const;
  std::vector<int> predict_all(const std::vector<FeatureRow>& xs) const;
  std::vector<double> predict_proba(const FeatureRow& x) const;

  int num_classes() const { return forest_.num_classes(); }
  int rounds_trained() const;

  /// The fitted forest; fit_model moves it out instead of copying it.
  const CompiledForest& forest() const& { return forest_; }
  CompiledForest forest() && { return std::move(forest_); }

 private:
  GbdtConfig cfg_;
  CompiledForest forest_;
};

}  // namespace cocg::ml
