// Serialization tests for ml/model_io: golden round trips per model kind
// (bit-identical predictions AND byte-identical re-serialization), plus
// the error paths — truncated, corrupt, and version-skewed inputs must
// throw std::runtime_error carrying a line/field diagnostic.
#include "ml/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/offline.h"
#include "game/library.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/tree.h"

namespace cocg::ml {
namespace {

Dataset blobs(Rng& rng, int classes = 3, int n_per = 50) {
  Dataset d({"a", "b"});
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < n_per; ++i) {
      d.add({4.0 * c + rng.normal(0, 1.0), rng.normal(0, 1.0)}, c);
    }
  }
  return d;
}

CompiledForest sample_model(ModelKind kind) {
  Rng rng(77);
  const Dataset d = blobs(rng);
  Rng fit(78);
  switch (kind) {
    case ModelKind::kDtc: {
      DecisionTreeClassifier m(TreeConfig{/*max_depth=*/6});
      m.fit(d, fit);
      return CompiledForest::compile(m);
    }
    case ModelKind::kRf: {
      RandomForestConfig cfg;
      cfg.n_trees = 7;
      RandomForestClassifier m(cfg);
      m.fit(d, fit);
      return CompiledForest::compile(m);
    }
    case ModelKind::kGbdt: {
      GbdtConfig cfg;
      cfg.n_rounds = 10;
      GbdtClassifier m(cfg);
      m.fit(d);
      return std::move(m).forest();
    }
  }
  throw std::logic_error("unreachable");
}

class ModelIoGolden : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelIoGolden, RoundTripIsExact) {
  const CompiledForest model = sample_model(GetParam());
  std::stringstream ss;
  write_model(model, ss);
  const std::string text = ss.str();
  const CompiledForest back = read_model(ss);

  EXPECT_EQ(back.kind(), model.kind());
  EXPECT_EQ(back.num_classes(), model.num_classes());
  EXPECT_EQ(back.num_trees(), model.num_trees());
  EXPECT_EQ(back.node_count(), model.node_count());

  // Predictions are bit-identical on a probe grid.
  Rng rng(79);
  for (int i = 0; i < 150; ++i) {
    const std::vector<double> x = {rng.uniform(-3.0, 12.0),
                                   rng.uniform(-4.0, 4.0)};
    EXPECT_EQ(back.predict(x), model.predict(x));
    EXPECT_EQ(back.predict_proba(x), model.predict_proba(x));
  }

  // Re-serialization is byte-identical: the golden-file property.
  std::stringstream ss2;
  write_model(back, ss2);
  EXPECT_EQ(ss2.str(), text);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ModelIoGolden,
                         ::testing::Values(ModelKind::kDtc, ModelKind::kRf,
                                           ModelKind::kGbdt));

TEST(ModelIo, FileRoundTrip) {
  const CompiledForest model = sample_model(ModelKind::kRf);
  const std::string path = "test_model_io_tmp.cocgm";
  save_model(model, path);
  const CompiledForest back = load_model(path);
  EXPECT_EQ(back.num_trees(), model.num_trees());
  EXPECT_EQ(back.predict(std::vector<double>{4.0, 0.0}),
            model.predict(std::vector<double>{4.0, 0.0}));
  std::remove(path.c_str());
}

TEST(ModelIo, UntrainedModelRefusesToSerialize) {
  std::stringstream ss;
  EXPECT_THROW(write_model(CompiledForest{}, ss), std::runtime_error);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(load_model("no_such_model_xyz.cocgm"), std::runtime_error);
}

TEST(ModelIo, BadMagicRejected) {
  std::stringstream ss("hello-world\n");
  EXPECT_THROW(read_model(ss), std::runtime_error);
}

TEST(ModelIo, VersionSkewNamesTheVersion) {
  const CompiledForest model = sample_model(ModelKind::kDtc);
  std::stringstream ss;
  write_model(model, ss);
  std::string text = ss.str();
  text.replace(text.find("cocg-model-v1"), 13, "cocg-model-v2");
  std::stringstream skewed(text);
  try {
    read_model(skewed);
    FAIL() << "version skew accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, TruncationRejectedAnywhere) {
  const CompiledForest model = sample_model(ModelKind::kRf);
  std::stringstream ss;
  write_model(model, ss);
  const std::string full = ss.str();
  for (double frac : {0.1, 0.5, 0.9, 0.99}) {
    std::stringstream cut(
        full.substr(0, static_cast<std::size_t>(full.size() * frac)));
    EXPECT_THROW(read_model(cut), std::runtime_error) << "frac " << frac;
  }
}

TEST(ModelIo, CorruptFieldDiagnosticNamesTheLine) {
  const CompiledForest model = sample_model(ModelKind::kDtc);
  std::stringstream ss;
  write_model(model, ss);
  std::string text = ss.str();
  // Make the class count unparsable.
  const auto pos = text.find("classes ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, text.find('\n', pos) - pos, "classes banana");
  std::stringstream corrupt(text);
  try {
    read_model(corrupt);
    FAIL() << "corrupt field accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

/// A saved GBDT with its line starting `prefix` replaced by `replacement`
/// must fail to load with a runtime_error naming a line.
void expect_line_rejected(const std::string& prefix,
                          const std::string& replacement) {
  std::stringstream ss;
  write_model(sample_model(ModelKind::kGbdt), ss);
  std::string text = ss.str();
  const auto pos = text.find("\n" + prefix);
  ASSERT_NE(pos, std::string::npos) << prefix;
  text.replace(pos + 1, text.find('\n', pos + 1) - pos - 1, replacement);
  std::stringstream corrupt(text);
  try {
    read_model(corrupt);
    ADD_FAILURE() << replacement << " accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
        << e.what();
  }
}

// A count read from a model sizes no allocation: a count beyond the values
// or lines that follow fails naming a line, not with std::bad_alloc.
TEST(ModelIo, OversizedBaseScoreCountRejected) {
  expect_line_rejected("base_score ", "base_score 100000000000000");
}

TEST(ModelIo, OversizedTreesCountRejected) {
  expect_line_rejected("trees ", "trees 100000000000000");
}

TEST(ModelIo, OversizedNodesCountRejected) {
  expect_line_rejected("nodes ", "nodes 100000000000000");
}

TEST(ModelIo, OversizedLeavesCountRejected) {
  expect_line_rejected("leaves ", "leaves 100000000000000");
}

TEST(ModelIo, OutOfRangeChildRejected) {
  const CompiledForest model = sample_model(ModelKind::kDtc);
  std::stringstream ss;
  write_model(model, ss);
  std::string text = ss.str();
  // First internal node line: "node <f> <thr> <l> <r>" — point its left
  // child far out of bounds. The re-validation in the reader must catch it.
  const auto pos = text.find("\nnode ");
  ASSERT_NE(pos, std::string::npos);
  const auto line_end = text.find('\n', pos + 1);
  std::istringstream fields(text.substr(pos + 1, line_end - pos - 1));
  std::string tag, f, thr;
  fields >> tag >> f >> thr;
  text.replace(pos + 1, line_end - pos - 1,
               tag + " " + f + " " + thr + " 99999 99999");
  std::stringstream corrupt(text);
  EXPECT_THROW(read_model(corrupt), std::runtime_error);
}

TEST(ModelIo, UnknownKindRejected) {
  const CompiledForest model = sample_model(ModelKind::kDtc);
  std::stringstream ss;
  write_model(model, ss);
  std::string text = ss.str();
  const auto pos = text.find("kind ");
  text.replace(pos, text.find('\n', pos) - pos, "kind svm");
  std::stringstream corrupt(text);
  EXPECT_THROW(read_model(corrupt), std::runtime_error);
}

// --- fit_model pinned to fixed bytes ---

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The (execution-stage history -> next stage) pairs a trained predictor
/// learns from, rebuilt from its corpus the way StagePredictor does.
Dataset predictor_corpus(const core::TrainedGame& tg) {
  const auto& enc = tg.predictor->encoder();
  Dataset d(enc.feature_names());
  for (const auto& run : *tg.bundle().corpus) {
    std::vector<int> exec;
    for (int st : run.stage_seq) {
      if (!tg.profile().stage_type(st).loading) exec.push_back(st);
    }
    for (std::size_t i = 0; i < exec.size(); ++i) {
      const std::vector<int> hist(
          exec.begin(), exec.begin() + static_cast<std::ptrdiff_t>(i));
      d.add(enc.encode(hist, run.player_id, run.script_idx), exec[i]);
    }
  }
  return d;
}

// Determinism tests compare a binary with itself, so they cannot see a
// tree grower that moves a fitted bit (a split, a tie order, a leaf sum).
// These digests of write_model output pin all three learners on a real
// predictor corpus. A grower change that moves one also changes every
// trained bundle and fleet report, so re-pin only on purpose.
TEST(ModelFit, ForestsMatchParentDigest) {
  const game::GameSpec spec = game::make_dota2();
  core::OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 60;
  cfg.seed = 5;
  const core::TrainedGame tg = core::train_game(spec, cfg);
  const Dataset data = predictor_corpus(tg);
  ASSERT_GT(data.size(), 150u);
  const std::pair<ModelKind, std::uint64_t> pinned[] = {
      {ModelKind::kDtc, 9835874197575514668ull},
      {ModelKind::kRf, 18237719738830591405ull},
      {ModelKind::kGbdt, 1031950686976799344ull},
  };
  for (const auto& [kind, digest] : pinned) {
    Rng rng(17);
    std::stringstream ss;
    write_model(*fit_model(kind, data, rng), ss);
    EXPECT_EQ(fnv1a(ss.str()), digest)
        << model_kind_name(kind) << " over " << data.size() << " rows";
  }
}

// The stage predictor shares DTC and GBDT full-corpus fits through its
// refit memo because those fits draw nothing from their Rng; RF draws, so
// it refits every time.
TEST(ModelFit, RngFreeKindsDrawNothing) {
  Rng data_rng(3);
  const Dataset data = blobs(data_rng);
  for (ModelKind kind : {ModelKind::kDtc, ModelKind::kRf, ModelKind::kGbdt}) {
    Rng rng(23);
    Rng untouched = rng;
    fit_model(kind, data, rng);
    bool same = true;
    for (int i = 0; i < 8; ++i) {
      same = same && rng.next_u64() == untouched.next_u64();
    }
    EXPECT_EQ(same, kind != ModelKind::kRf) << model_kind_name(kind);
  }
}

// A fitted forest lives as long as its model, so its arrays hold no growth
// slack.
TEST(ModelFit, CompiledForestHoldsNoSlack) {
  Rng data_rng(4);
  const Dataset data = blobs(data_rng);
  for (ModelKind kind : {ModelKind::kDtc, ModelKind::kRf, ModelKind::kGbdt}) {
    Rng rng(29);
    const auto model = fit_model(kind, data, rng);
    const CompiledForest::Data& d = model->data();
    const auto tight = [](const auto& v) { return v.capacity() == v.size(); };
    EXPECT_TRUE(tight(d.base_score)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.tree_first)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.feature)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.threshold)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.left)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.right)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.leaf_label)) << model_kind_name(kind);
    EXPECT_TRUE(tight(d.leaf_data)) << model_kind_name(kind);
  }
}

}  // namespace
}  // namespace cocg::ml
