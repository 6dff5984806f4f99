// GameBundle / ModelBank tests: the train-once / share-everywhere path.
// Round trips must preserve predictions bit-for-bit and the training
// corpus (so replace_model retrains exactly like the original); bundles
// saved without the corpus must degrade gracefully; instantiation must
// alias the compiled forests, not copy them.
#include "core/model_bank.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "core/stage_predictor.h"
#include "game/library.h"

namespace cocg::core {
namespace {

OfflineConfig small_cfg(std::uint64_t seed = 11) {
  OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 16;
  cfg.seed = seed;
  return cfg;
}

/// A probe that exercises pooled and (if any) per-player models.
void expect_same_predictions(const StagePredictor& a,
                             const StagePredictor& b) {
  for (std::uint64_t player = 1; player <= 4; ++player) {
    for (std::size_t mode = 0; mode < 2; ++mode) {
      EXPECT_EQ(a.predict_next({}, player, mode),
                b.predict_next({}, player, mode));
      EXPECT_EQ(a.predict_sequence({1}, player, mode, 3),
                b.predict_sequence({1}, player, mode, 3));
    }
  }
}

TEST(GameBundle, StreamRoundTripIsExact) {
  static const game::GameSpec g = game::make_genshin();
  const TrainedGame tg = train_game(g, small_cfg());
  const GameBundle bundle = ModelBank::bundle_from(tg);

  std::stringstream ss;
  write_bundle(bundle, ss);
  const GameBundle back = read_bundle(ss);

  EXPECT_EQ(back.game_name(), "Genshin Impact");  // spaces survive
  EXPECT_EQ(back.chosen_k, tg.chosen_k);
  EXPECT_EQ(back.mean_run_duration_ms, tg.mean_run_duration_ms);
  EXPECT_EQ(back.sse_by_k, tg.sse_by_k);
  EXPECT_EQ(back.predictor.accuracy, tg.predictor->accuracy());
  EXPECT_EQ(back.predictor.corpus.size(),
            bundle.predictor.corpus.size());

  const auto restored =
      StagePredictor::from_artifact(back.predictor, back.profile.get());
  EXPECT_TRUE(restored->trained());
  EXPECT_EQ(restored->accuracy(), tg.predictor->accuracy());
  expect_same_predictions(*tg.predictor, *restored);
}

TEST(GameBundle, FileRoundTrip) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  const GameBundle bundle = ModelBank::bundle_from(tg);
  const std::string path = "test_model_bank_tmp.cocgm";
  save_bundle_file(bundle, path);
  const GameBundle back = load_bundle_file(path);
  EXPECT_EQ(back.game_name(), "Contra");
  const auto restored =
      StagePredictor::from_artifact(back.predictor, back.profile.get());
  expect_same_predictions(*tg.predictor, *restored);
  std::filesystem::remove(path);
}

TEST(GameBundle, ReplaceModelRetrainsIdentically) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  std::stringstream ss;
  write_bundle(ModelBank::bundle_from(tg), ss);
  const GameBundle back = read_bundle(ss);
  const auto restored =
      StagePredictor::from_artifact(back.predictor, back.profile.get());

  // Same corpus, separate refit memos → the §IV-B2 fallback retrains to
  // the exact same model on both sides.
  ASSERT_TRUE(restored->can_retrain());
  tg.predictor->replace_model();
  restored->replace_model();
  EXPECT_EQ(restored->model_kind(), tg.predictor->model_kind());
  EXPECT_EQ(restored->accuracy(), tg.predictor->accuracy());
  expect_same_predictions(*tg.predictor, *restored);
}

TEST(GameBundle, CorpusFreeBundleDegradesGracefully) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  std::stringstream saved;
  write_bundle(ModelBank::bundle_from(tg), saved);
  // Drop the predictor block's `corpus N` count line and its N run lines.
  std::string text = saved.str();
  const auto begin = text.find("\ncorpus ");
  const auto end = text.find("\npooled\n", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  text.replace(begin, end - begin, "\ncorpus 0");
  std::stringstream ss(text);
  const GameBundle back = read_bundle(ss);
  EXPECT_TRUE(back.predictor.corpus.empty());

  const auto restored =
      StagePredictor::from_artifact(back.predictor, back.profile.get());
  // Inference still works, bit-identical to the original...
  expect_same_predictions(*tg.predictor, *restored);
  // ...but retraining is a clear error, not UB, and the active model
  // kind is left untouched.
  EXPECT_FALSE(restored->can_retrain());
  const ml::ModelKind kind_before = restored->model_kind();
  EXPECT_THROW(restored->replace_model(), std::runtime_error);
  Rng rng(5);
  EXPECT_EQ(restored->model_kind(), kind_before);
  EXPECT_THROW(restored->evaluate_model(ml::ModelKind::kRf, rng),
               std::runtime_error);
  EXPECT_NO_THROW(restored->predict_next({}, 1, 0));
}

TEST(GameBundle, TruncatedAndSkewedInputsRejected) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  std::stringstream ss;
  write_bundle(ModelBank::bundle_from(tg), ss);
  const std::string full = ss.str();

  for (double frac : {0.05, 0.4, 0.8, 0.99}) {
    std::stringstream cut(
        full.substr(0, static_cast<std::size_t>(full.size() * frac)));
    EXPECT_THROW(read_bundle(cut), std::runtime_error) << "frac " << frac;
  }
  std::string skewed = full;
  skewed.replace(skewed.find("cocg-bundle-v1"), 14, "cocg-bundle-v9");
  std::stringstream sk(skewed);
  try {
    read_bundle(sk);
    FAIL() << "version skew accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

/// `text` with the first line that starts with `prefix` replaced by
/// `replacement`.
std::string replace_line(std::string text, const std::string& prefix,
                         const std::string& replacement) {
  const auto begin = text.find("\n" + prefix);
  EXPECT_NE(begin, std::string::npos) << prefix;
  const auto end = text.find('\n', begin + 1);
  text.replace(begin + 1, end - begin - 1, replacement);
  return text;
}

TEST(GameBundle, HistoryLenBelowOneRejectedAtLoad) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  std::stringstream saved;
  write_bundle(ModelBank::bundle_from(tg), saved);
  std::stringstream ss(replace_line(saved.str(), "history_len ",
                                    "history_len 0"));
  try {
    read_bundle(ss);
    FAIL() << "history_len 0 accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line "), std::string::npos) << what;
    EXPECT_NE(what.find("history_len"), std::string::npos) << what;
  }
}

// Eq. 1's S = (1 - P) x M turns negative for P > 1 and exceeds M for
// P < 0, so a bundle with such an accuracy must not load.
TEST(GameBundle, AccuracyOutsideUnitIntervalRejectedAtLoad) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  std::stringstream saved;
  write_bundle(ModelBank::bundle_from(tg), saved);
  for (const char* bad : {"accuracy 1.5", "accuracy -0.1"}) {
    std::stringstream ss(replace_line(saved.str(), "accuracy ", bad));
    try {
      read_bundle(ss);
      FAIL() << bad << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line "), std::string::npos) << what;
      EXPECT_NE(what.find("accuracy"), std::string::npos) << what;
    }
  }
}

TEST(GameBundle, CorpusWithoutTrainingPairRejected) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  std::stringstream saved;
  write_bundle(ModelBank::bundle_from(tg), saved);
  // One run with no stages: nothing to learn, yet not an empty corpus.
  std::string text = saved.str();
  const auto begin = text.find("\ncorpus ");
  const auto end = text.find("\npooled\n", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  text.replace(begin, end - begin, "\ncorpus 1\nrun 1 0 0");
  std::stringstream ss(text);
  const GameBundle back = read_bundle(ss);
  try {
    StagePredictor::from_artifact(back.predictor, back.profile.get());
    FAIL() << "corpus without a training pair accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corpus"), std::string::npos)
        << e.what();
  }
  ModelBank bank;
  bank.add(back);
  EXPECT_THROW(bank.instantiate("Contra", &g), std::runtime_error);
}

/// A saved Contra bundle with its first line starting `prefix` replaced by
/// `replacement` must fail to load with a runtime_error naming a line and
/// `field`.
void expect_line_rejected(const std::string& prefix,
                          const std::string& replacement,
                          const std::string& field) {
  static const game::GameSpec g = game::make_contra();
  static const std::string saved = [] {
    std::stringstream ss;
    write_bundle(ModelBank::bundle_from(train_game(g, small_cfg())), ss);
    return ss.str();
  }();
  std::stringstream ss(replace_line(saved, prefix, replacement));
  try {
    read_bundle(ss);
    ADD_FAILURE() << replacement << " accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line "), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

// A count read from a bundle sizes no allocation: a count beyond the
// values that follow fails naming a line, not with std::bad_alloc.
TEST(GameBundle, OversizedSseByKCountRejected) {
  expect_line_rejected("sse_by_k ", "sse_by_k 100000000000000", "sse_by_k");
}

TEST(GameBundle, OversizedCorpusCountRejected) {
  expect_line_rejected("corpus ", "corpus 100000000000000", "run");
}

TEST(GameBundle, OversizedRunLengthRejected) {
  expect_line_rejected("run ", "run 1 0 100000000000000", "run stage");
}

// FrameProfiler makes one cluster per chosen K; Contra's profile has two.
TEST(GameBundle, ChosenKOtherThanClusterCountRejected) {
  expect_line_rejected("chosen_k ", "chosen_k 7", "chosen_k");
}

// chosen_k 0 with no clusters, and stages left with no members: it used
// to load, and a fleet run on it then stopped on a precondition.
TEST(GameBundle, ZeroClustersRejectedAtLoad) {
  static const game::GameSpec g = game::make_contra();
  std::stringstream saved;
  write_bundle(ModelBank::bundle_from(train_game(g, small_cfg())), saved);
  std::istringstream in(saved.str());
  std::ostringstream edited;
  int clusters_line = 0;
  std::string l;
  for (int n = 1; std::getline(in, l); ++n) {
    if (l.rfind("chosen_k ", 0) == 0) l = "chosen_k 0";
    if (l.rfind("cluster ", 0) == 0) continue;  // drop every cluster
    if (l.rfind("clusters ", 0) == 0) {
      l = "clusters 0";
      clusters_line = n;
    }
    if (l.rfind("stage ", 0) == 0) {
      // stage <id> <loading> <mean> <max> <occurrences> <members...> <peak
      // and mean demands>: keep the first five fields and no member.
      std::istringstream ls(l);
      std::string tag, id, loading, mean, max, occ;
      std::size_t members = 0;
      ls >> tag >> id >> loading >> mean >> max >> occ >> members;
      for (std::size_t m = 0; m < members; ++m) ls >> tag;
      std::string rest;
      std::getline(ls, rest);
      l = "stage " + id + ' ' + loading + ' ' + mean + ' ' + max + ' ' +
          occ + " 0" + rest;
    }
    edited << l << '\n';
  }
  ASSERT_GT(clusters_line, 0);
  // The clusters line keeps its number: only cluster lines after it go.
  std::stringstream ss(edited.str());
  try {
    read_bundle(ss);
    FAIL() << "a bundle with no clusters loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(clusters_line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("clusters 0"), std::string::npos) << what;
  }
}

TEST(GameBundle, NegativeOrNonFiniteSseRejected) {
  for (const char* bad :
       {"sse_by_k 2 1.5 -0.25", "sse_by_k 2 1.5 1e999", "sse_by_k 1 nan"}) {
    expect_line_rejected("sse_by_k ", bad, "sse_by_k");
  }
}

TEST(ModelBank, InstantiateSharesForestsCopiesProfile) {
  static const game::GameSpec g = game::make_genshin();
  const TrainedGame tg = train_game(g, small_cfg());
  ModelBank bank;
  bank.add_trained(tg);
  ASSERT_TRUE(bank.has("Genshin Impact"));

  const TrainedGame inst_a = bank.instantiate("Genshin Impact", &g);
  const TrainedGame inst_b = bank.instantiate("Genshin Impact", &g);

  // The compiled forests are one shared copy across the bank and every
  // instantiation; the profiles are independent deep copies.
  const auto& bank_pooled = bank.bundle("Genshin Impact").predictor.pooled;
  EXPECT_EQ(inst_a.predictor->to_artifact().pooled.get(),
            bank_pooled.get());
  EXPECT_EQ(inst_b.predictor->to_artifact().pooled.get(),
            bank_pooled.get());
  EXPECT_NE(inst_a.profile.get(), inst_b.profile.get());
  EXPECT_NE(inst_a.profile.get(),
            bank.bundle("Genshin Impact").profile.get());

  EXPECT_EQ(inst_a.spec, &g);
  EXPECT_EQ(inst_a.chosen_k, tg.chosen_k);
  expect_same_predictions(*tg.predictor, *inst_a.predictor);
}

TEST(ModelBank, UnknownGameThrows) {
  ModelBank bank;
  EXPECT_THROW(bank.bundle("Nope"), std::runtime_error);
  static const game::GameSpec g = game::make_contra();
  EXPECT_THROW(bank.instantiate("Nope", &g), std::runtime_error);
}

TEST(ModelBank, InstantiateSuiteNamesMissingGame) {
  static const std::vector<game::GameSpec> suite = {game::make_contra(),
                                                    game::make_genshin()};
  ModelBank bank;
  bank.add_trained(train_game(suite[0], small_cfg()));
  try {
    bank.instantiate_suite(suite);
    FAIL() << "missing game accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("Genshin Impact"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelBank, SaveDirLoadDirRoundTrip) {
  static const std::vector<game::GameSpec> suite = {game::make_contra(),
                                                    game::make_genshin()};
  ModelBank bank;
  for (const auto& g : suite) bank.add_trained(train_game(g, small_cfg()));

  const std::string dir = "test_model_bank_dir_tmp";
  const auto paths = bank.save_dir(dir);
  EXPECT_EQ(paths.size(), 2u);

  const ModelBank loaded = ModelBank::load_dir(dir);
  EXPECT_EQ(loaded.size(), 2u);
  ASSERT_TRUE(loaded.has("Genshin Impact"));  // sanitized filename, real key
  const auto models = loaded.instantiate_suite(suite);
  ASSERT_EQ(models.size(), 2u);
  expect_same_predictions(
      *bank.instantiate("Contra", &suite[0]).predictor,
      *models.at("Contra").predictor);
  std::filesystem::remove_all(dir);
}

TEST(ModelBank, LoadDirMissingThrows) {
  EXPECT_THROW(ModelBank::load_dir("no_such_dir_xyz"), std::runtime_error);
}

}  // namespace
}  // namespace cocg::core
