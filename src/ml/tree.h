// CART decision trees: a Gini classifier (the paper's DTC) and a
// squared-error regression tree (the weak learner inside GBDT). Both grow
// through one builder in tree.cpp, parameterized by the split criterion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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
/// trees do. The stable partition keeps every node's rows in ascending
/// order, so a node's rows, and its chained per-feature sorts, are a pure
/// function of the splits on its path from the root, at any depth. The
/// orders are keyed by that path, and a later fit that reaches the node
/// replays them instead of sorting.
///
/// The trie is one node array linked first-child/next-sibling. The orders
/// are uint16_t row indices bump-allocated from fixed blocks, so a fit on
/// more than kMaxRows rows takes no trie.
class SplitOrderTrie {
 public:
  static constexpr std::size_t kMaxRows = 65535;

  struct Node {
    /// Key within the parent: its split and the side taken (0 left, 1
    /// right). The root's key is unused.
    int feature = -1;
    double threshold = 0.0;
    int side = 0;
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    /// The node's rows after each feature's sort, feature after feature;
    /// nullptr until a fit scans the node.
    std::uint16_t* orders = nullptr;
    std::uint32_t size = 0;  ///< entries at `orders`
  };

  /// `rows` x `features` is the shape of the fits; it sizes the blocks.
  SplitOrderTrie(std::size_t rows, std::size_t features);

  /// Node 0 is the root.
  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// The child of `parent` on `side` of the split, made on first use.
  std::int32_t child(std::int32_t parent, int feature, double threshold,
                     int side);
  /// Storage for `count` row indices, valid as long as the trie.
  std::uint16_t* allocate(std::size_t count);

 private:
  /// Every block holds this many root-sized order sets (rows x features
  /// entries), and at least kMinBlock entries.
  static constexpr std::size_t kBlockRoots = 4;
  static constexpr std::size_t kMinBlock = 4096;

  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<std::uint16_t[]>> blocks_;
  std::size_t block_size_;
  std::uint16_t* block_next_ = nullptr;  ///< free part of blocks_.back()
  std::uint16_t* block_end_ = nullptr;
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

  /// With a `trie`, replays and records the sorted orders of the nodes
  /// it holds; the fitted tree is the same either way. A non-empty
  /// `fitted` (one slot per row) receives each row's leaf value, the same
  /// double predict(x[i]) returns.
  void fit(const std::vector<FeatureRow>& x, const std::vector<double>& y,
           SplitOrderTrie* trie = nullptr, std::span<double> fitted = {});

  bool trained() const { return !tree_.nodes.empty(); }
  double predict(const FeatureRow& x) const;

  std::size_t node_count() const { return tree_.nodes.size(); }
  const Tree& tree() const { return tree_; }

 private:
  TreeConfig cfg_;
  Tree tree_;
};

}  // namespace cocg::ml
