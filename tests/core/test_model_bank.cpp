// GameBundle / ModelBank tests: the train-once / share-everywhere path.
// Round trips must preserve predictions bit-for-bit and the training
// corpus (so replace_model retrains exactly like the original); bundles
// saved without the corpus must degrade gracefully; a bundle its profile
// cannot host must fail to load; instantiation must share the bank's
// bundle — profile, corpus, forests and refit memo — not copy it.
#include "core/model_bank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
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

/// `text` read as a bundle and shared, as ModelBank::load_dir does.
std::shared_ptr<const GameBundle> read_shared(const std::string& text) {
  std::istringstream in(text);
  return std::make_shared<const GameBundle>(read_bundle(in));
}

std::string bundle_text(const GameBundle& bundle) {
  std::ostringstream os;
  write_bundle(bundle, os);
  return os.str();
}

TEST(GameBundle, StreamRoundTripIsExact) {
  static const game::GameSpec g = game::make_genshin();
  const TrainedGame tg = train_game(g, small_cfg());
  const GameBundle& bundle = tg.bundle();

  const std::string text = bundle_text(bundle);
  const auto back = read_shared(text);

  EXPECT_EQ(back->game_name(), "Genshin Impact");  // spaces survive
  EXPECT_EQ(back->chosen_k, bundle.chosen_k);
  EXPECT_EQ(back->mean_run_duration_ms, bundle.mean_run_duration_ms);
  EXPECT_EQ(back->sse_by_k, bundle.sse_by_k);
  EXPECT_EQ(back->trained.accuracy, tg.predictor->accuracy());
  EXPECT_EQ(back->corpus->size(), bundle.corpus->size());
  // Load → write is a fixed point.
  EXPECT_EQ(bundle_text(*back), text);

  const StagePredictor restored(back);
  EXPECT_EQ(restored.accuracy(), tg.predictor->accuracy());
  expect_same_predictions(*tg.predictor, restored);
}

TEST(GameBundle, FileRoundTrip) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  const std::string path = "test_model_bank_tmp.cocgm";
  save_bundle_file(tg.bundle(), path);
  const auto back = std::make_shared<const GameBundle>(load_bundle_file(path));
  EXPECT_EQ(back->game_name(), "Contra");
  expect_same_predictions(*tg.predictor, StagePredictor(back));
  std::filesystem::remove(path);
}

TEST(GameBundle, ReplaceModelRetrainsIdentically) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  const auto restored = std::make_unique<StagePredictor>(
      read_shared(bundle_text(tg.bundle())));

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
  // Drop the predictor block's `corpus N` count line and its N run lines.
  std::string text = bundle_text(tg.bundle());
  const auto begin = text.find("\ncorpus ");
  const auto end = text.find("\npooled\n", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  text.replace(begin, end - begin, "\ncorpus 0");
  const auto back = read_shared(text);
  EXPECT_TRUE(back->corpus->empty());

  const auto restored = std::make_unique<StagePredictor>(back);
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
  const std::string full = bundle_text(tg.bundle());

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
  std::stringstream ss(replace_line(bundle_text(tg.bundle()), "history_len ",
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
  const std::string saved = bundle_text(tg.bundle());
  for (const char* bad : {"accuracy 1.5", "accuracy -0.1"}) {
    std::stringstream ss(replace_line(saved, "accuracy ", bad));
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

// A corpus that cannot retrain is rejected when the bundle is read —
// by read_bundle and by ModelBank::load_dir — naming its `corpus` line.
TEST(GameBundle, CorpusWithoutTrainingPairRejected) {
  static const game::GameSpec g = game::make_contra();
  const TrainedGame tg = train_game(g, small_cfg());
  // One run with no stages: nothing to learn, yet not an empty corpus.
  std::string text = bundle_text(tg.bundle());
  const auto begin = text.find("\ncorpus ");
  const auto end = text.find("\npooled\n", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  text.replace(begin, end - begin, "\ncorpus 1\nrun 1 0 0");
  const auto corpus_line =
      std::count(text.begin(), text.begin() + begin + 1, '\n') + 1;
  const std::string where =
      "line " + std::to_string(corpus_line) + ": 'corpus 1'";
  std::stringstream ss(text);
  try {
    read_bundle(ss);
    FAIL() << "corpus without a training pair accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }

  const std::string dir = "test_model_bank_bad_corpus_tmp";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/Contra.cocgm") << text;
  try {
    ModelBank::load_dir(dir);
    ADD_FAILURE() << "load_dir accepted a corpus without a training pair";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Contra.cocgm"), std::string::npos) << what;
    EXPECT_NE(what.find(where), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

/// A saved Contra bundle with its first line starting `prefix` replaced by
/// `replacement` must fail to load with a runtime_error naming a line and
/// `field`.
void expect_line_rejected(const std::string& prefix,
                          const std::string& replacement,
                          const std::string& field) {
  static const game::GameSpec g = game::make_contra();
  static const std::string saved =
      bundle_text(train_game(g, small_cfg()).bundle());
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
  std::istringstream in(bundle_text(train_game(g, small_cfg()).bundle()));
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

// Two shards instantiated from one bank run over the bank's own bundle:
// one profile, corpus, pooled forest and refit memo, nothing copied. Each
// has a lineage of its own.
TEST(ModelBank, InstantiateSharesBankArtifacts) {
  static const game::GameSpec g = game::make_genshin();
  const TrainedGame tg = train_game(g, small_cfg());
  ModelBank bank;
  bank.add_trained(tg);
  ASSERT_TRUE(bank.has("Genshin Impact"));
  const GameBundle& own = bank.bundle("Genshin Impact");
  EXPECT_EQ(&own, &tg.bundle());  // add_trained shares, too

  const TrainedGame shard_a = bank.instantiate("Genshin Impact", &g);
  const TrainedGame shard_b = bank.instantiate("Genshin Impact", &g);
  for (const TrainedGame* shard : {&shard_a, &shard_b}) {
    EXPECT_EQ(&shard->bundle(), &own);
    EXPECT_EQ(&shard->profile(), own.profile.get());
    EXPECT_EQ(shard->bundle().corpus.get(), own.corpus.get());
    EXPECT_EQ(shard->bundle().refits.get(), own.refits.get());
    EXPECT_EQ(shard->predictor->active().pooled.get(),
              own.trained.pooled.get());
    EXPECT_EQ(shard->spec, &g);
  }
  EXPECT_NE(shard_a.predictor.get(), shard_b.predictor.get());
  shard_a.predictor->replace_model();
  EXPECT_NE(shard_a.predictor->model_kind(), shard_b.predictor->model_kind());
  expect_same_predictions(*tg.predictor, *shard_b.predictor);
}

// An instantiated game keeps its bundle alive: it predicts and rotates
// after the bank that made it is gone.
TEST(ModelBank, InstantiatedGameOutlivesBank) {
  static const game::GameSpec g = game::make_contra();
  auto bank = std::make_unique<ModelBank>();
  bank->add_trained(train_game(g, small_cfg()));
  TrainedGame tg = bank->instantiate("Contra", &g);
  const int before = tg.predictor->predict_next({}, 1, 0);
  bank.reset();
  EXPECT_EQ(tg.predictor->predict_next({}, 1, 0), before);
  tg.predictor->replace_model();
  tg.predictor->replace_model();
  EXPECT_NO_THROW(tg.predictor->predict_sequence({1}, 1, 0, 3));
  EXPECT_EQ(tg.predictor->redundancy(),
            (1.0 - tg.predictor->online_accuracy()) *
                tg.profile().peak_demand);
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
