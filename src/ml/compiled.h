// Pointer-free compiled inference artifacts (train once, share everywhere).
//
// CompiledForest is the one model type of the three predictor algorithms
// (DTC / RF / GBDT) from fit to inference: fit_model trains a learner,
// flattens every tree into contiguous feature/threshold/child arrays plus a
// flat leaf-payload table, and frees the learner (GBDT appends each tree
// to the arrays as it grows it). The hot path is an index walk over a few
// vectors instead of pointer chasing through per-model node structures.
// Predictions are bit-identical to tree walks of the same fits
// (tests/ml/test_compiled.cpp enforces this).
//
// The artifact is also the serialization unit (ml/model_io.h) and the
// sharing unit: the core ModelBank hands the same immutable CompiledForest
// to every session and fleet shard that plays the same game.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace cocg::ml {

class DecisionTreeClassifier;
class RandomForestClassifier;
struct Tree;

enum class ModelKind { kDtc, kRf, kGbdt };

const char* model_kind_name(ModelKind kind);
/// Inverse of model_kind_name; returns false on unknown names.
bool parse_model_kind(const std::string& name, ModelKind& out);

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
  /// artifact whose walks read out of bounds or fail to terminate. Every
  /// array is trimmed to its size: a forest is kept as long as its model.
  explicit CompiledForest(Data data);

  static CompiledForest compile(const DecisionTreeClassifier& tree);
  static CompiledForest compile(const RandomForestClassifier& forest);

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

  int predict(std::span<const double> x) const;
  std::vector<double> predict_proba(std::span<const double> x) const;
  /// Allocation-free probability; `out` needs num_classes slots.
  void predict_proba_into(std::span<const double> x,
                          std::span<double> out) const;

 private:
  /// Walk one tree; returns the reached leaf's leaf-table row index.
  std::size_t walk(std::size_t tree, std::span<const double> x) const;

  Data d_;
};

/// Appends one fitted tree to `d`. Its leaves are numbered in node order
/// and its leaf table already has the forest's width (RF trees fit on
/// bootstrap row indices of the full dataset, so none lacks a class
/// column).
void append_tree(CompiledForest::Data& d, const Tree& tree);

/// Trains the `kind` learner with the configuration tuned for stage
/// prediction (DTC depth 8; RF defaults; GBDT 80 rounds at depth 6) on
/// `data`, drawing from `rng` exactly as the learner's own fit does, and
/// returns the compiled result. The learner is freed before returning.
/// Only RF draws; DTC and GBDT leave `rng` untouched.
std::shared_ptr<const CompiledForest> fit_model(ModelKind kind,
                                                const Dataset& data,
                                                Rng& rng);

}  // namespace cocg::ml
