// CART decision trees: a Gini classifier (the paper's DTC) and a
// squared-error regression tree (the weak learner inside GBDT). Both grow
// through one builder in tree.cpp, parameterized by the split criterion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace cocg::ml {

struct TreeConfig {
  int max_depth = 12;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 means all (plain CART),
  /// smaller values give the random-forest style feature subsampling.
  std::size_t max_features = 0;
};

/// One node in the flattened tree. Leaves have feature == -1.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  /// Internal node: child index, samples with x[feature] <= threshold.
  /// Leaf: row of the tree's leaf table.
  int left = -1;
  int right = -1;
  int label = 0;  ///< leaf: majority class (0 in a regression tree)
};

/// A fitted tree. Nodes are in pre-order, so every child index is greater
/// than its parent's and leaves are numbered in node order. `leaf_values`
/// holds `leaf_width` doubles per leaf: the class probabilities of a Gini
/// tree, or the mean target of a squared-error tree.
struct Tree {
  std::vector<TreeNode> nodes;
  std::vector<double> leaf_values;
  int leaf_width = 0;

  /// The leaf node `x` reaches.
  const TreeNode& leaf(const FeatureRow& x) const;
};

/// Sorted row orders shared by regression-tree fits that use the same
/// feature rows, start from all rows and examine every feature, as GBDT's
/// trees do. The stable partition fixes a node's rows by the splits on its
/// path from the root, and the node's chained per-feature sorts depend only
/// on those rows, so the orders are keyed by that path and a later fit that
/// reaches the node skips its sorts. Only the nodes nearest the root are
/// kept, which bounds the memory.
struct SplitOrderTrie {
  struct Node {
    /// The node's rows after each feature's sort, feature after feature;
    /// empty until a fit scans the node.
    std::vector<std::uint32_t> orders;
    /// Keyed by (split feature, threshold, side: 0 left, 1 right).
    std::map<std::tuple<int, double, int>, std::unique_ptr<Node>> children;
  };

  Node root;
};

/// Multiclass Gini-impurity CART classifier.
class DecisionTreeClassifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig cfg = {}) : cfg_(cfg) {}

  /// `rng` is only consulted when cfg.max_features > 0.
  void fit(const Dataset& data, Rng& rng);
  void fit(const Dataset& data);  ///< deterministic, all features
  /// Fits on the given rows of `data` only; repeats are allowed, so a
  /// bootstrap sample needs no copy of the rows.
  void fit(const Dataset& data, std::vector<std::size_t> rows, Rng& rng);

  bool trained() const { return !tree_.nodes.empty(); }
  int predict(const FeatureRow& x) const;
  std::vector<int> predict_all(const std::vector<FeatureRow>& xs) const;

  /// Class-probability estimate at the reached leaf.
  std::vector<double> predict_proba(const FeatureRow& x) const;

  std::size_t node_count() const { return tree_.nodes.size(); }
  int depth() const;
  int num_classes() const { return tree_.leaf_width; }

  /// Read-only view for compilation into a CompiledForest (ml/compiled.h).
  const Tree& tree() const { return tree_; }

 private:
  void grow(const Dataset& data, std::vector<std::size_t> rows, Rng* rng);

  TreeConfig cfg_;
  Tree tree_;
};

/// Squared-error regression tree (for gradient boosting).
class RegressionTree {
 public:
  explicit RegressionTree(TreeConfig cfg = {}) : cfg_(cfg) {}

  /// With a `trie`, reuses and records the sorted orders of the cached
  /// nodes; the fitted tree is the same either way.
  void fit(const std::vector<FeatureRow>& x, const std::vector<double>& y,
           SplitOrderTrie* trie = nullptr);

  bool trained() const { return !tree_.nodes.empty(); }
  double predict(const FeatureRow& x) const;

  std::size_t node_count() const { return tree_.nodes.size(); }
  const Tree& tree() const { return tree_; }

 private:
  TreeConfig cfg_;
  Tree tree_;
};

}  // namespace cocg::ml
