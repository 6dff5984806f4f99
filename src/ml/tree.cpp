#include "ml/tree.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>

#include "common/check.h"

namespace cocg::ml {

namespace {

/// Choose which feature columns to examine at a node.
std::vector<std::size_t> candidate_features(std::size_t n_features,
                                            std::size_t max_features,
                                            Rng* rng) {
  std::vector<std::size_t> feats(n_features);
  std::iota(feats.begin(), feats.end(), std::size_t{0});
  if (max_features == 0 || max_features >= n_features || rng == nullptr) {
    return feats;
  }
  rng->shuffle(feats.begin(), feats.end());
  feats.resize(max_features);
  std::sort(feats.begin(), feats.end());  // deterministic scan order
  return feats;
}

/// Gini impurity over class labels; a side's statistic is its class counts.
struct Gini {
  using Stats = std::vector<std::size_t>;

  const std::vector<int>& y;
  int num_classes;

  int leaf_width() const { return num_classes; }
  Stats zero() const { return Stats(static_cast<std::size_t>(num_classes), 0); }
  void add(Stats& s, std::size_t row) const {
    ++s[static_cast<std::size_t>(y[row])];
  }
  void remove(Stats& s, std::size_t row) const {
    --s[static_cast<std::size_t>(y[row])];
  }

  bool pure(const Stats& node, std::size_t n) const {
    return *std::max_element(node.begin(), node.end()) == n;
  }
  /// Any valid split beats no split.
  double gate(const Stats&, std::size_t) const {
    return std::numeric_limits<double>::max();
  }
  double score(const Stats& left, const Stats& right, std::size_t nl,
               std::size_t n) const {
    return (static_cast<double>(nl) * gini(left, nl) +
            static_cast<double>(n - nl) * gini(right, n - nl)) /
           static_cast<double>(n);
  }

  /// Appends the class probabilities; returns the majority class.
  int leaf(const Stats& node, std::size_t n, std::vector<double>& out) const {
    for (std::size_t c : node) {
      out.push_back(static_cast<double>(c) / static_cast<double>(n));
    }
    return static_cast<int>(std::max_element(node.begin(), node.end()) -
                            node.begin());
  }

  static double gini(const Stats& counts, std::size_t total) {
    double acc = 1.0;
    for (std::size_t c : counts) {
      const double p = static_cast<double>(c) / static_cast<double>(total);
      acc -= p * p;
    }
    return acc;
  }
};

/// Squared error; a side's statistic is Σy and Σy² (its n is the scan
/// position).
struct SquaredError {
  struct Stats {
    double sum = 0.0;
    double sum2 = 0.0;
  };

  const std::vector<double>& y;

  int leaf_width() const { return 1; }
  Stats zero() const { return {}; }
  void add(Stats& s, std::size_t row) const {
    const double v = y[row];
    s.sum += v;
    s.sum2 += v * v;
  }
  void remove(Stats& s, std::size_t row) const {
    const double v = y[row];
    s.sum -= v;
    s.sum2 -= v * v;
  }

  /// Only the gate ends a squared-error node; constant targets fail it.
  bool pure(const Stats&, std::size_t) const { return false; }
  /// A split must actually reduce the node's squared error; otherwise
  /// constant targets would "split" at error 0 == 0.
  double gate(const Stats& node, std::size_t n) const {
    return error(node, n) - 1e-12;
  }
  double score(const Stats& left, const Stats& right, std::size_t nl,
               std::size_t n) const {
    return error(left, nl) + error(right, n - nl);
  }

  /// Appends the mean target; regression leaves carry no class.
  int leaf(const Stats& node, std::size_t n, std::vector<double>& out) const {
    out.push_back(node.sum / static_cast<double>(n));
    return 0;
  }

  /// Within-side squared error Σy² − (Σy)²/n.
  static double error(const Stats& s, std::size_t n) {
    return s.sum2 - s.sum * s.sum / static_cast<double>(n);
  }
};

struct SplitChoice {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double score = 0.0;  // lower is better
};

/// Grows one tree in pre-order. The scan order is part of the fitted bits:
/// each node sorts one copy of its rows feature after feature without
/// resetting it, so tied rows keep the order the previous feature's sort
/// left, and the squared-error sums are accumulated in that order.
template <typename Criterion>
class Grower {
 public:
  using Stats = typename Criterion::Stats;

  Grower(const std::vector<FeatureRow>& x, Criterion crit,
         const TreeConfig& cfg, Rng* rng, SplitOrderTrie* trie,
         std::span<double> fitted, Tree& out)
      : x_(x),
        crit_(crit),
        cfg_(cfg),
        rng_(rng),
        trie_(trie),
        fitted_(fitted),
        out_(out) {}

  void fit(std::vector<std::size_t> rows) {
    COCG_EXPECTS_MSG(!rows.empty(), "cannot fit an empty dataset");
    COCG_EXPECTS(trie_ == nullptr || x_.size() <= SplitOrderTrie::kMaxRows);
    COCG_EXPECTS(fitted_.empty() ||
                 (fitted_.size() == x_.size() && crit_.leaf_width() == 1));
    // Cleared, not replaced, so a reused tree keeps its capacity.
    out_.nodes.clear();
    out_.leaf_values.clear();
    out_.leaf_width = crit_.leaf_width();
    order_.resize(rows.size());
    grow(std::span<std::size_t>(rows), 0, trie_ != nullptr ? 0 : kNoMemo);
  }

 private:
  static constexpr std::int32_t kNoMemo = -1;

  /// `memo` is this node's trie index, or kNoMemo.
  int grow(std::span<std::size_t> idx, int depth, std::int32_t memo) {
    const std::size_t n = idx.size();
    Stats node = crit_.zero();
    for (std::size_t i : idx) crit_.add(node, i);

    const int me = static_cast<int>(out_.nodes.size());
    out_.nodes.emplace_back();
    if (!crit_.pure(node, n) && depth < cfg_.max_depth &&
        n >= cfg_.min_samples_split) {
      const SplitChoice split = best_split(idx, node, memo);
      if (split.found) {
        const std::size_t nl = partition(idx, split);
        const int l = grow(idx.first(nl), depth + 1,
                           child(memo, depth, split, 0, nl));
        const int r = grow(idx.subspan(nl), depth + 1,
                           child(memo, depth, split, 1, n - nl));
        TreeNode& nd = out_.nodes[static_cast<std::size_t>(me)];
        nd.feature = static_cast<int>(split.feature);
        nd.threshold = split.threshold;
        nd.left = l;
        nd.right = r;
        return me;
      }
    }
    TreeNode& nd = out_.nodes[static_cast<std::size_t>(me)];
    const std::size_t leaf = out_.leaf_values.size();
    nd.left = static_cast<int>(leaf) / out_.leaf_width;
    nd.label = crit_.leaf(node, n, out_.leaf_values);
    if (!fitted_.empty()) {
      // partition() sent these rows here by the walk's own test.
      for (std::size_t i : idx) fitted_[i] = out_.leaf_values[leaf];
    }
    return me;
  }

  /// The trie entry of one side of `split`, or kNoMemo when there is no
  /// trie or the child is too deep or too small ever to scan.
  std::int32_t child(std::int32_t memo, int depth, const SplitChoice& split,
                     int side, std::size_t rows) {
    if (memo == kNoMemo || depth + 1 >= cfg_.max_depth ||
        rows < cfg_.min_samples_split) {
      return kNoMemo;
    }
    return trie_->child(memo, static_cast<int>(split.feature),
                        split.threshold, side);
  }

  SplitChoice best_split(std::span<const std::size_t> idx, const Stats& node,
                         std::int32_t memo) {
    const std::size_t n = idx.size();
    // Drawn only here, so pure nodes and depth-capped nodes draw nothing.
    const auto feats =
        candidate_features(x_[0].size(), cfg_.max_features, rng_);
    SplitChoice best;
    best.score = crit_.gate(node, n);
    SplitOrderTrie::Node* m =
        memo == kNoMemo
            ? nullptr
            : &trie_->nodes()[static_cast<std::size_t>(memo)];
    // A trie node replays its sorted orders; the first fit to reach it
    // records them.
    if (m != nullptr && m->orders != nullptr) {
      COCG_CHECK_MSG(m->size == feats.size() * n,
                     "split-order trie shared across different rows");
      for (std::size_t j = 0; j < feats.size(); ++j) {
        scan(std::span<const std::uint16_t>(m->orders + j * n, n), feats[j],
             best);
      }
      return best;
    }
    std::uint16_t* record =
        m != nullptr ? trie_->allocate(feats.size() * n) : nullptr;
    const std::span<std::size_t> order = std::span(order_).first(n);
    std::copy(idx.begin(), idx.end(), order.begin());
    for (std::size_t j = 0; j < feats.size(); ++j) {
      const std::size_t f = feats[j];
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return x_[a][f] < x_[b][f];
                });
      if (record != nullptr) {
        std::copy(order.begin(), order.end(), record + j * n);
      }
      scan(std::span<const std::size_t>(order), f, best);
    }
    if (m != nullptr) {
      m->orders = record;
      m->size = static_cast<std::uint32_t>(feats.size() * n);
    }
    return best;
  }

  /// Sweeps one feature's sorted rows, moving them one by one from right
  /// to left; a split between positions i-1 and i is valid when the
  /// feature value strictly increases there.
  template <typename Row>
  void scan(std::span<const Row> order, std::size_t f,
            SplitChoice& best) const {
    const std::size_t n = order.size();
    Stats left = crit_.zero();
    Stats right = crit_.zero();
    for (std::size_t i : order) crit_.add(right, i);
    for (std::size_t i = 1; i < n; ++i) {
      crit_.add(left, order[i - 1]);
      crit_.remove(right, order[i - 1]);
      const double lo = x_[order[i - 1]][f];
      const double hi = x_[order[i]][f];
      if (lo >= hi) continue;  // tied values cannot be separated
      if (i < cfg_.min_samples_leaf || n - i < cfg_.min_samples_leaf) {
        continue;
      }
      const double score = crit_.score(left, right, i, n);
      if (score < best.score) {
        best.found = true;
        best.feature = f;
        best.threshold = lo + (hi - lo) / 2.0;
        best.score = score;
      }
    }
  }

  /// Stable partition of `idx` by the split, using order_ as scratch;
  /// returns the size of the left part.
  std::size_t partition(std::span<std::size_t> idx, const SplitChoice& split) {
    std::size_t nl = 0, nr = 0;
    for (std::size_t i : idx) {
      if (x_[i][split.feature] <= split.threshold) {
        idx[nl++] = i;
      } else {
        order_[nr++] = i;
      }
    }
    COCG_CHECK(nl > 0 && nr > 0);
    std::copy_n(order_.begin(), nr, idx.subspan(nl).begin());
    return nl;
  }

  const std::vector<FeatureRow>& x_;
  const Criterion crit_;
  const TreeConfig& cfg_;
  Rng* rng_;  ///< nullptr: every split examines every feature
  SplitOrderTrie* trie_;  ///< nullptr: nothing replayed or recorded
  std::span<double> fitted_;  ///< empty: leaf values not wanted
  Tree& out_;
  /// One node's rows, re-sorted per feature; nodes use it one at a time.
  std::vector<std::size_t> order_;
};

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

int depth_below(const std::vector<TreeNode>& nodes, int node) {
  const TreeNode& nd = nodes[static_cast<std::size_t>(node)];
  if (nd.feature < 0) return 1;
  return 1 + std::max(depth_below(nodes, nd.left),
                      depth_below(nodes, nd.right));
}

}  // namespace

SplitOrderTrie::SplitOrderTrie(std::size_t rows, std::size_t features)
    : nodes_(1),
      block_size_(std::max(kMinBlock, kBlockRoots * rows * features)) {
  COCG_EXPECTS(rows <= kMaxRows);
}

std::int32_t SplitOrderTrie::child(std::int32_t parent, int feature,
                                   double threshold, int side) {
  std::int32_t* link = &nodes_[static_cast<std::size_t>(parent)].first_child;
  while (*link >= 0) {
    const Node& c = nodes_[static_cast<std::size_t>(*link)];
    if (c.feature == feature && c.threshold == threshold && c.side == side) {
      return *link;
    }
    link = &nodes_[static_cast<std::size_t>(*link)].next_sibling;
  }
  const auto id = static_cast<std::int32_t>(nodes_.size());
  *link = id;  // before push_back, which may move the node `link` is in
  nodes_.push_back(Node{feature, threshold, side});
  return id;
}

std::uint16_t* SplitOrderTrie::allocate(std::size_t count) {
  if (static_cast<std::size_t>(block_end_ - block_next_) < count) {
    const std::size_t size = std::max(block_size_, count);
    blocks_.emplace_back(new std::uint16_t[size]);
    block_next_ = blocks_.back().get();
    block_end_ = block_next_ + size;
  }
  std::uint16_t* out = block_next_;
  block_next_ += count;
  return out;
}

const TreeNode& Tree::leaf(const FeatureRow& x) const {
  COCG_EXPECTS_MSG(!nodes.empty(), "predict before fit");
  std::size_t node = 0;
  while (nodes[node].feature >= 0) {
    const auto& nd = nodes[node];
    COCG_EXPECTS(static_cast<std::size_t>(nd.feature) < x.size());
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                : nd.right);
  }
  return nodes[node];
}

// ---------------------------------------------------------------------------
// DecisionTreeClassifier
// ---------------------------------------------------------------------------

void DecisionTreeClassifier::fit(const Dataset& data) {
  grow(data, all_rows(data.size()), nullptr);
}

void DecisionTreeClassifier::fit(const Dataset& data, Rng& rng) {
  grow(data, all_rows(data.size()), &rng);
}

void DecisionTreeClassifier::fit(const Dataset& data,
                                 std::vector<std::size_t> rows, Rng& rng) {
  for (std::size_t i : rows) COCG_EXPECTS(i < data.size());
  grow(data, std::move(rows), &rng);
}

void DecisionTreeClassifier::grow(const Dataset& data,
                                  std::vector<std::size_t> rows, Rng* rng) {
  Grower<Gini>(data.features(), Gini{data.labels(), data.num_classes()}, cfg_,
               rng, nullptr, {}, tree_)
      .fit(std::move(rows));
}

int DecisionTreeClassifier::predict(const FeatureRow& x) const {
  return tree_.leaf(x).label;
}

std::vector<int> DecisionTreeClassifier::predict_all(
    const std::vector<FeatureRow>& xs) const {
  std::vector<int> out;
  out.reserve(xs.size());
  for (const auto& x : xs) out.push_back(predict(x));
  return out;
}

std::vector<double> DecisionTreeClassifier::predict_proba(
    const FeatureRow& x) const {
  const auto first = tree_.leaf_values.begin() +
                     tree_.leaf(x).left * tree_.leaf_width;
  return {first, first + tree_.leaf_width};
}

int DecisionTreeClassifier::depth() const {
  return trained() ? depth_below(tree_.nodes, 0) : 0;
}

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

void RegressionTree::fit(const std::vector<FeatureRow>& x,
                         const std::vector<double>& y, SplitOrderTrie* trie,
                         std::span<double> fitted) {
  COCG_EXPECTS(x.size() == y.size());
  Grower<SquaredError>(x, SquaredError{y}, cfg_, nullptr, trie, fitted, tree_)
      .fit(all_rows(x.size()));
}

double RegressionTree::predict(const FeatureRow& x) const {
  return tree_.leaf_values[static_cast<std::size_t>(tree_.leaf(x).left)];
}

}  // namespace cocg::ml
