// Tabular dataset for the stage predictor's offline training (§IV-B).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace cocg::ml {

using FeatureRow = std::vector<double>;

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names)
      : feature_names_(std::move(feature_names)) {}

  /// Append one labelled example; row width must match existing rows.
  void add(FeatureRow x, int y);

  std::size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }
  std::size_t num_features() const { return x_.empty() ? 0 : x_[0].size(); }

  const FeatureRow& x(std::size_t i) const { return x_[i]; }
  int y(std::size_t i) const { return y_[i]; }
  const std::vector<FeatureRow>& features() const { return x_; }
  const std::vector<int>& labels() const { return y_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Number of distinct label values assuming labels in [0, max_label].
  int num_classes() const;

  /// Randomly split into (train, test) with `train_fraction` of rows in the
  /// train part — the paper uses 75/25 (§V-D2).
  std::pair<Dataset, Dataset> split(double train_fraction, Rng& rng) const;

  /// Concatenate another dataset with the same width.
  void append(const Dataset& other);

 private:
  std::vector<std::string> feature_names_;
  std::vector<FeatureRow> x_;
  std::vector<int> y_;
};

}  // namespace cocg::ml
