#include "ml/model_io.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace cocg::ml {

namespace {

constexpr const char* kMagic = "cocg-model-v1";
constexpr const char* kVersionPrefix = "cocg-model-";

ModelKind parse_kind(const std::string& s, LineReader& r) {
  ModelKind kind{};
  if (!parse_model_kind(s, kind)) r.fail("unknown model kind '" + s + "'");
  return kind;
}

}  // namespace

void write_model(const CompiledForest& model, std::ostream& os) {
  if (!model.trained()) {
    throw std::runtime_error("write_model: model is untrained");
  }
  FullPrecision precision(os);
  const CompiledForest::Data& d = model.data();
  os << kMagic << '\n';
  os << "kind " << model_kind_name(d.kind) << '\n';
  os << "classes " << d.num_classes << '\n';
  os << "features " << d.num_features << '\n';
  os << "leaf_width " << d.leaf_width << '\n';
  os << "learning_rate " << d.learning_rate << '\n';
  os << "base_score " << d.base_score.size();
  for (double v : d.base_score) os << ' ' << v;
  os << '\n';
  os << "trees " << model.num_trees() << '\n';
  os << "tree_first";
  for (std::int32_t v : d.tree_first) os << ' ' << v;
  os << '\n';
  os << "nodes " << d.feature.size() << '\n';
  for (std::size_t i = 0; i < d.feature.size(); ++i) {
    os << "node " << d.feature[i] << ' ' << d.threshold[i] << ' ' << d.left[i]
       << ' ' << d.right[i] << '\n';
  }
  const std::size_t leaves = model.leaf_count();
  os << "leaves " << leaves << '\n';
  for (std::size_t i = 0; i < leaves; ++i) {
    os << "leaf " << d.leaf_label[i];
    for (int w = 0; w < d.leaf_width; ++w) {
      os << ' '
         << d.leaf_data[i * static_cast<std::size_t>(d.leaf_width) +
                        static_cast<std::size_t>(w)];
    }
    os << '\n';
  }
  os << "end-model" << '\n';
}

void save_model(const CompiledForest& model, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_model: cannot open " + path);
  write_model(model, out);
  if (!out) throw std::runtime_error("save_model: write failed " + path);
}

CompiledForest read_model(LineReader& r) {
  const std::string magic = r.line(kMagic);
  if (magic != kMagic) {
    if (magic.rfind(kVersionPrefix, 0) == 0) {
      r.fail("unsupported model format version '" + magic + "' (expected " +
             kMagic + ")");
    }
    r.fail("bad magic '" + magic + "' (expected " + std::string(kMagic) +
           ")");
  }
  CompiledForest::Data d;
  {
    auto ls = r.expect("kind ");
    d.kind = parse_kind(r.field<std::string>(ls, "kind"), r);
  }
  {
    auto ls = r.expect("classes ");
    d.num_classes = r.field<int>(ls, "classes");
  }
  {
    auto ls = r.expect("features ");
    d.num_features = r.field<int>(ls, "features");
  }
  {
    auto ls = r.expect("leaf_width ");
    d.leaf_width = r.field<int>(ls, "leaf_width");
    if (d.leaf_width <= 0) r.fail("leaf_width must be positive");
  }
  {
    auto ls = r.expect("learning_rate ");
    d.learning_rate = r.field<double>(ls, "learning_rate");
  }
  // Counts size nothing: a count beyond what follows fails at the first
  // missing line or value. CompiledForest trims the arrays' slack.
  {
    auto ls = r.expect("base_score ");
    const auto n = r.field<std::size_t>(ls, "base_score count");
    for (std::size_t i = 0; i < n; ++i) {
      d.base_score.push_back(r.field<double>(ls, "base_score value"));
    }
  }
  std::size_t n_trees = 0;
  {
    auto ls = r.expect("trees ");
    n_trees = r.field<std::size_t>(ls, "trees");
  }
  {
    auto ls = r.expect("tree_first");
    for (std::size_t i = 0; i <= n_trees; ++i) {
      d.tree_first.push_back(r.field<std::int32_t>(ls, "tree_first value"));
    }
  }
  std::size_t n_nodes = 0;
  {
    auto ls = r.expect("nodes ");
    n_nodes = r.field<std::size_t>(ls, "nodes");
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    auto ls = r.expect("node ");
    d.feature.push_back(r.field<std::int32_t>(ls, "node feature"));
    d.threshold.push_back(r.field<double>(ls, "node threshold"));
    d.left.push_back(r.field<std::int32_t>(ls, "node left"));
    d.right.push_back(r.field<std::int32_t>(ls, "node right"));
  }
  std::size_t n_leaves = 0;
  {
    auto ls = r.expect("leaves ");
    n_leaves = r.field<std::size_t>(ls, "leaves");
  }
  for (std::size_t i = 0; i < n_leaves; ++i) {
    auto ls = r.expect("leaf ");
    d.leaf_label.push_back(r.field<std::int32_t>(ls, "leaf label"));
    for (int w = 0; w < d.leaf_width; ++w) {
      d.leaf_data.push_back(r.field<double>(ls, "leaf value"));
    }
  }
  {
    const std::string end = r.line("end-model");
    if (end != "end-model") {
      r.fail("expected 'end-model', got '" + end + "'");
    }
  }
  try {
    return CompiledForest(std::move(d));
  } catch (const std::runtime_error& e) {
    r.fail(e.what());
  }
}

CompiledForest read_model(std::istream& is) {
  LineReader r(is, "model");
  return read_model(r);
}

CompiledForest load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return read_model(in);
}

}  // namespace cocg::ml
