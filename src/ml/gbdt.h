// Gradient-boosted decision trees, multiclass via one-vs-all softmax
// (the paper's GBDT predictor option, §IV-B1).
//
// Standard formulation: K parallel boosting chains of shallow regression
// trees fit to the softmax gradient (residual = one-hot(y) − p), with
// shrinkage. Predictions are argmax over accumulated raw scores.
#pragma once

#include <vector>

#include "ml/dataset.h"
#include "ml/tree.h"

namespace cocg::ml {

struct GbdtConfig {
  int n_rounds = 40;
  double learning_rate = 0.2;
  TreeConfig tree{/*max_depth=*/4, /*min_samples_split=*/4,
                  /*min_samples_leaf=*/2, /*max_features=*/0};
};

class GbdtClassifier {
 public:
  explicit GbdtClassifier(GbdtConfig cfg = {}) : cfg_(cfg) {}

  /// Deterministic: every round fits every row on every feature.
  void fit(const Dataset& data);

  bool trained() const { return num_classes_ > 0; }
  int predict(const FeatureRow& x) const;
  std::vector<int> predict_all(const std::vector<FeatureRow>& xs) const;
  std::vector<double> predict_proba(const FeatureRow& x) const;

  int num_classes() const { return num_classes_; }
  int rounds_trained() const;

  // Read-only views for compilation into a CompiledForest (ml/compiled.h).
  const GbdtConfig& config() const { return cfg_; }
  const std::vector<double>& base_scores() const { return base_score_; }
  const std::vector<std::vector<RegressionTree>>& trees() const {
    return trees_;
  }

 private:
  std::vector<double> raw_scores(const FeatureRow& x) const;

  GbdtConfig cfg_;
  int num_classes_ = 0;
  std::vector<double> base_score_;                 ///< per class (log prior)
  std::vector<std::vector<RegressionTree>> trees_; ///< [round][class]
};

}  // namespace cocg::ml
