#include "ml/compiled.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/tree.h"

namespace cocg::ml {

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kDtc: return "DTC";
    case ModelKind::kRf: return "RF";
    case ModelKind::kGbdt: return "GBDT";
  }
  return "?";
}

bool parse_model_kind(const std::string& name, ModelKind& out) {
  if (name == "DTC") out = ModelKind::kDtc;
  else if (name == "RF") out = ModelKind::kRf;
  else if (name == "GBDT") out = ModelKind::kGbdt;
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// CompiledForest — validation
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::runtime_error("compiled model invalid: " + what);
}

/// First index of the strictly largest value — std::max_element semantics,
/// which is what every legacy predict() tie-break uses.
std::size_t argmax(std::span<const double> v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

/// Byte-for-byte the same computation as gbdt.cpp's softmax_inplace.
void softmax_span(std::span<double> scores) {
  const double mx = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (auto& s : scores) {
    s = std::exp(s - mx);
    total += s;
  }
  for (auto& s : scores) s /= total;
}

}  // namespace

CompiledForest::CompiledForest(Data data) : d_(std::move(data)) {
  d_.base_score.shrink_to_fit();
  d_.tree_first.shrink_to_fit();
  d_.feature.shrink_to_fit();
  d_.threshold.shrink_to_fit();
  d_.left.shrink_to_fit();
  d_.right.shrink_to_fit();
  d_.leaf_label.shrink_to_fit();
  d_.leaf_data.shrink_to_fit();
  const std::size_t n = d_.feature.size();
  if (n == 0) invalid("no nodes");
  if (d_.num_classes < 1) invalid("num_classes must be >= 1");
  if (d_.num_features < 1) invalid("num_features must be >= 1");
  if (d_.threshold.size() != n || d_.left.size() != n || d_.right.size() != n) {
    invalid("node arrays disagree in length");
  }
  if (d_.tree_first.size() < 2) invalid("needs at least one tree");
  if (d_.tree_first.front() != 0 ||
      d_.tree_first.back() != static_cast<std::int32_t>(n)) {
    invalid("tree_first must span the node arrays");
  }
  const int expected_width =
      d_.kind == ModelKind::kGbdt ? 1 : d_.num_classes;
  if (d_.leaf_width != expected_width) {
    invalid("leaf_width inconsistent with kind/num_classes");
  }
  if (d_.leaf_data.size() %
          static_cast<std::size_t>(d_.leaf_width) != 0) {
    invalid("leaf_data length not a multiple of leaf_width");
  }
  const auto leaves = static_cast<std::int32_t>(leaf_count());
  if (d_.leaf_label.size() != leaf_count()) {
    invalid("leaf_label length must equal the leaf count");
  }
  if (d_.kind == ModelKind::kDtc && num_trees() != 1) {
    invalid("DTC must contain exactly one tree");
  }
  if (d_.kind == ModelKind::kGbdt) {
    if (d_.learning_rate <= 0.0) invalid("GBDT learning_rate must be > 0");
    if (d_.base_score.size() != static_cast<std::size_t>(d_.num_classes)) {
      invalid("GBDT base_score must have num_classes entries");
    }
    if (num_trees() % static_cast<std::size_t>(d_.num_classes) != 0) {
      invalid("GBDT tree count must be a multiple of num_classes");
    }
  } else if (!d_.base_score.empty()) {
    invalid("base_score is only valid for GBDT");
  }
  for (std::size_t t = 0; t + 1 < d_.tree_first.size(); ++t) {
    const std::int32_t lo = d_.tree_first[t];
    const std::int32_t hi = d_.tree_first[t + 1];
    if (lo >= hi) invalid("tree_first must be strictly increasing");
    for (std::int32_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (d_.feature[u] >= 0) {
        if (d_.feature[u] >= d_.num_features) {
          invalid("node feature index out of range");
        }
        // Children strictly after the parent and inside the same tree:
        // guarantees in-bounds reads and terminating walks.
        if (d_.left[u] <= i || d_.left[u] >= hi || d_.right[u] <= i ||
            d_.right[u] >= hi) {
          invalid("node child index out of range");
        }
      } else {
        if (d_.left[u] < 0 || d_.left[u] >= leaves) {
          invalid("leaf index out of range");
        }
        const std::int32_t label =
            d_.leaf_label[static_cast<std::size_t>(d_.left[u])];
        if (label < 0 || label >= d_.num_classes) {
          invalid("leaf label out of range");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Compilation from the trained models
// ---------------------------------------------------------------------------

void append_tree(CompiledForest::Data& d, const Tree& tree) {
  COCG_CHECK(tree.leaf_width == d.leaf_width);
  const auto base = static_cast<std::int32_t>(d.feature.size());
  const auto leaf_base = static_cast<std::int32_t>(d.leaf_label.size());
  for (const TreeNode& nd : tree.nodes) {
    d.feature.push_back(nd.feature);
    d.threshold.push_back(nd.threshold);
    if (nd.feature >= 0) {
      d.left.push_back(base + nd.left);
      d.right.push_back(base + nd.right);
      d.num_features = std::max(d.num_features, nd.feature + 1);
    } else {
      d.left.push_back(leaf_base + nd.left);
      d.right.push_back(-1);
      d.leaf_label.push_back(nd.label);
    }
  }
  d.leaf_data.insert(d.leaf_data.end(), tree.leaf_values.begin(),
                     tree.leaf_values.end());
  d.tree_first.push_back(static_cast<std::int32_t>(d.feature.size()));
}

namespace {

/// A DTC or RF forest of `trees`. Its arrays are reserved at their exact
/// sizes, so the constructor finds no slack to trim and copies nothing.
CompiledForest classifier_forest(ModelKind kind, int num_classes,
                                 std::span<const Tree* const> trees) {
  CompiledForest::Data d;
  d.kind = kind;
  d.num_classes = num_classes;
  d.leaf_width = num_classes;
  d.num_features = 1;
  std::size_t nodes = 0, leaf_values = 0;
  for (const Tree* t : trees) {
    nodes += t->nodes.size();
    leaf_values += t->leaf_values.size();
  }
  d.tree_first.reserve(trees.size() + 1);
  d.feature.reserve(nodes);
  d.threshold.reserve(nodes);
  d.left.reserve(nodes);
  d.right.reserve(nodes);
  d.leaf_label.reserve(leaf_values / static_cast<std::size_t>(num_classes));
  d.leaf_data.reserve(leaf_values);
  d.tree_first.push_back(0);
  for (const Tree* t : trees) append_tree(d, *t);
  return CompiledForest(std::move(d));
}

}  // namespace

CompiledForest CompiledForest::compile(const DecisionTreeClassifier& tree) {
  COCG_EXPECTS_MSG(tree.trained(), "compile before fit");
  const Tree* t = &tree.tree();
  return classifier_forest(ModelKind::kDtc, tree.num_classes(), {&t, 1});
}

CompiledForest CompiledForest::compile(const RandomForestClassifier& forest) {
  COCG_EXPECTS_MSG(forest.trained(), "compile before fit");
  std::vector<const Tree*> trees;
  trees.reserve(forest.trees().size());
  for (const auto& tree : forest.trees()) trees.push_back(&tree.tree());
  return classifier_forest(ModelKind::kRf, forest.num_classes(), trees);
}

namespace {

template <typename Learner>
std::shared_ptr<const CompiledForest> share(const Learner& learner) {
  return std::make_shared<const CompiledForest>(
      CompiledForest::compile(learner));
}

}  // namespace

std::shared_ptr<const CompiledForest> fit_model(ModelKind kind,
                                                const Dataset& data,
                                                Rng& rng) {
  switch (kind) {
    case ModelKind::kDtc: {
      // A single CART of moderate depth — enough for script/stage logic,
      // not enough to memorize every player's personal task order.
      TreeConfig cfg;
      cfg.max_depth = 8;
      DecisionTreeClassifier dtc(cfg);
      dtc.fit(data, rng);
      return share(dtc);
    }
    case ModelKind::kRf: {
      RandomForestClassifier rf;
      rf.fit(data, rng);
      return share(rf);
    }
    case ModelKind::kGbdt: {
      // Deeper iteration: the paper notes GBDT "requires more in-depth
      // iteration" and stays accurate on complex titles.
      GbdtConfig cfg;
      cfg.n_rounds = 80;
      cfg.tree.max_depth = 6;
      GbdtClassifier gbdt(cfg);
      gbdt.fit(data);
      return std::make_shared<const CompiledForest>(std::move(gbdt).forest());
    }
  }
  COCG_CHECK_MSG(false, "unknown model kind");
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

std::size_t CompiledForest::walk(std::size_t tree,
                                 std::span<const double> x) const {
  auto i = static_cast<std::size_t>(d_.tree_first[tree]);
  while (d_.feature[i] >= 0) {
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(d_.feature[i])] <= d_.threshold[i]
            ? d_.left[i]
            : d_.right[i]);
  }
  return static_cast<std::size_t>(d_.left[i]);
}

void CompiledForest::predict_proba_into(std::span<const double> x,
                                        std::span<double> out) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  COCG_EXPECTS(x.size() >= static_cast<std::size_t>(d_.num_features));
  const auto k = static_cast<std::size_t>(d_.num_classes);
  COCG_EXPECTS(out.size() == k);
  const std::size_t trees = num_trees();
  switch (d_.kind) {
    case ModelKind::kDtc: {
      const std::size_t leaf = walk(0, x);
      for (std::size_t c = 0; c < k; ++c) {
        out[c] = d_.leaf_data[leaf * k + c];
      }
      break;
    }
    case ModelKind::kRf: {
      for (std::size_t c = 0; c < k; ++c) out[c] = 0.0;
      for (std::size_t t = 0; t < trees; ++t) {
        const std::size_t leaf = walk(t, x);
        for (std::size_t c = 0; c < k; ++c) {
          out[c] += d_.leaf_data[leaf * k + c];
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        out[c] /= static_cast<double>(trees);
      }
      break;
    }
    case ModelKind::kGbdt: {
      for (std::size_t c = 0; c < k; ++c) out[c] = d_.base_score[c];
      for (std::size_t t = 0; t < trees; ++t) {
        out[t % k] += d_.learning_rate * d_.leaf_data[walk(t, x)];
      }
      softmax_span(out);
      break;
    }
  }
}

std::vector<double> CompiledForest::predict_proba(
    std::span<const double> x) const {
  std::vector<double> out(static_cast<std::size_t>(d_.num_classes));
  predict_proba_into(x, out);
  return out;
}

int CompiledForest::predict(std::span<const double> x) const {
  COCG_EXPECTS_MSG(trained(), "predict before fit");
  COCG_EXPECTS(x.size() >= static_cast<std::size_t>(d_.num_features));
  const auto k = static_cast<std::size_t>(d_.num_classes);
  switch (d_.kind) {
    case ModelKind::kDtc:
      return d_.leaf_label[walk(0, x)];
    case ModelKind::kRf: {
      std::vector<double> votes(k, 0.0);
      for (std::size_t t = 0; t < num_trees(); ++t) {
        votes[static_cast<std::size_t>(d_.leaf_label[walk(t, x)])] += 1.0;
      }
      return static_cast<int>(argmax(votes));
    }
    case ModelKind::kGbdt: {
      std::vector<double> s(d_.base_score.begin(), d_.base_score.end());
      for (std::size_t t = 0; t < num_trees(); ++t) {
        s[t % k] += d_.learning_rate * d_.leaf_data[walk(t, x)];
      }
      return static_cast<int>(argmax(s));
    }
  }
  return 0;
}

}  // namespace cocg::ml
