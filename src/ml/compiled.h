// Pointer-free compiled inference artifacts (train once, share everywhere).
//
// CompiledForest is the common post-`fit` representation of the three
// predictor algorithms (DTC / RF / GBDT): every tree flattened into
// contiguous feature/threshold/child arrays plus a flat leaf-payload table,
// so the hot path is an index walk over a few vectors instead of pointer
// chasing through per-model node structures. Predictions are bit-identical
// to the original tree walks (tests/ml/test_compiled.cpp enforces this),
// and the batched entry points do zero per-row heap allocation.
//
// The artifact is also the serialization unit (ml/model_io.h) and the
// sharing unit: the core ModelBank hands the same immutable CompiledForest
// to every session and fleet shard that plays the same game.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace cocg::ml {

class DecisionTreeClassifier;
class RandomForestClassifier;
class GbdtClassifier;

enum class ModelKind { kDtc, kRf, kGbdt };

const char* model_kind_name(ModelKind kind);
/// Inverse of model_kind_name; returns false on unknown names.
bool parse_model_kind(const std::string& name, ModelKind& out);

/// Dense row-major feature matrix for batched inference: one contiguous
/// buffer instead of a vector of per-row vectors.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  FeatureMatrix(std::size_t rows, std::size_t cols);
  static FeatureMatrix from_rows(const std::vector<FeatureRow>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

class CompiledForest {
 public:
  /// Structure-of-arrays payload. `feature[i] < 0` marks node i a leaf
  /// whose `left` field indexes the leaf table; internal nodes' left/right
  /// are absolute node indices, always greater than the parent's index, so
  /// every walk terminates. Trees are concatenated; tree t occupies nodes
  /// [tree_first[t], tree_first[t+1]). For GBDT the trees are stored
  /// round-major (tree t corrects class t % num_classes), matching the
  /// boosting accumulation order exactly.
  struct Data {
    ModelKind kind = ModelKind::kDtc;
    int num_classes = 0;
    int num_features = 0;        ///< minimum feature-row width accepted
    int leaf_width = 0;          ///< doubles per leaf-table row
    double learning_rate = 0.0;  ///< GBDT shrinkage; unused otherwise
    std::vector<double> base_score;        ///< GBDT log prior; else empty
    std::vector<std::int32_t> tree_first;  ///< size num_trees + 1
    std::vector<std::int32_t> feature;
    std::vector<double> threshold;
    std::vector<std::int32_t> left;
    std::vector<std::int32_t> right;
    std::vector<std::int32_t> leaf_label;  ///< classifier majority class
    std::vector<double> leaf_data;  ///< leaf_width-stride payload rows
  };

  CompiledForest() = default;
  /// Validates every shape and index invariant; throws std::runtime_error
  /// naming the offending field, so deserialization cannot produce an
  /// artifact whose walks read out of bounds or fail to terminate.
  explicit CompiledForest(Data data);

  static CompiledForest compile(const DecisionTreeClassifier& tree);
  static CompiledForest compile(const RandomForestClassifier& forest);
  static CompiledForest compile(const GbdtClassifier& gbdt);

  bool trained() const { return !d_.feature.empty(); }
  ModelKind kind() const { return d_.kind; }
  int num_classes() const { return d_.num_classes; }
  int num_features() const { return d_.num_features; }
  std::size_t num_trees() const {
    return d_.tree_first.empty() ? 0 : d_.tree_first.size() - 1;
  }
  std::size_t node_count() const { return d_.feature.size(); }
  std::size_t leaf_count() const {
    return d_.leaf_width == 0 ? 0
                              : d_.leaf_data.size() /
                                    static_cast<std::size_t>(d_.leaf_width);
  }
  const Data& data() const { return d_; }

  // Scalar entry points (thin wrappers over the allocation-free kernels).
  int predict(std::span<const double> x) const;
  std::vector<double> predict_proba(std::span<const double> x) const;
  /// Allocation-free scalar probability; `out` needs num_classes slots.
  void predict_proba_into(std::span<const double> x,
                          std::span<double> out) const;

  /// Batched class prediction; `out` needs xs.rows() slots. No per-row
  /// heap allocation (one scratch accumulator per call for RF/GBDT).
  void predict_batch(const FeatureMatrix& xs, std::span<int> out) const;
  /// Batched probabilities, row-major with stride num_classes; `out`
  /// needs xs.rows() * num_classes slots. Zero heap allocation.
  void predict_proba_batch(const FeatureMatrix& xs,
                           std::span<double> out) const;

 private:
  /// Walk one tree; returns the reached leaf's leaf-table row index.
  std::size_t walk(std::size_t tree, std::span<const double> x) const;
  /// Per-class accumulation shared by the proba/label paths: RF leaf-proba
  /// sums or GBDT raw scores into `acc` (rows * num_classes, row-major).
  void accumulate(const FeatureMatrix& xs, std::span<double> acc,
                  bool votes) const;

  Data d_;
};

}  // namespace cocg::ml
