#include "ml/dataset.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace cocg::ml {

void Dataset::add(FeatureRow x, int y) {
  COCG_EXPECTS_MSG(y >= 0, "labels must be non-negative class indices");
  COCG_EXPECTS_MSG(x_.empty() || x.size() == x_[0].size(),
                   "row width must match dataset width");
  x_.push_back(std::move(x));
  y_.push_back(y);
}

int Dataset::num_classes() const {
  int mx = -1;
  for (int y : y_) mx = std::max(mx, y);
  return mx + 1;
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           Rng& rng) const {
  COCG_EXPECTS(train_fraction >= 0.0 && train_fraction <= 1.0);
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  rng.shuffle(idx.begin(), idx.end());
  const auto n_train =
      static_cast<std::size_t>(train_fraction * static_cast<double>(size()));
  Dataset train(feature_names_), test(feature_names_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    auto& dst = (i < n_train) ? train : test;
    dst.add(x_[idx[i]], y_[idx[i]]);
  }
  return {std::move(train), std::move(test)};
}

void Dataset::append(const Dataset& other) {
  COCG_EXPECTS_MSG(
      empty() || other.empty() || num_features() == other.num_features(),
      "dataset widths must match");
  for (std::size_t i = 0; i < other.size(); ++i) {
    add(other.x(i), other.y(i));
  }
}

}  // namespace cocg::ml
