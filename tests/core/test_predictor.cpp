#include "core/stage_predictor.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "core/features.h"
#include "core/offline.h"
#include "game/library.h"
#include "obs/obs.h"

namespace cocg::core {
namespace {

/// Hand-built profile: type 0 = loading, types 1..3 execution.
GameProfile toy_profile() {
  GameProfile p;
  p.game_name = "toy";
  p.norm_scale = default_norm_scale();
  for (int c = 0; c < 4; ++c) {
    ClusterInfo ci;
    ci.id = c;
    ci.centroid = ResourceVector{20.0 + 10 * c, 10.0 + 20 * c, 1000, 1000};
    ci.loading = (c == 0);
    p.clusters.push_back(ci);
  }
  for (int t = 0; t < 4; ++t) {
    StageTypeInfo st;
    st.id = t;
    st.loading = (t == 0);
    st.clusters = {t};
    st.peak_demand = p.clusters[static_cast<std::size_t>(t)].centroid;
    st.mean_demand = st.peak_demand;
    st.mean_duration_ms = 60000;
    st.occurrences = 10;
    p.stage_types.push_back(st);
  }
  p.loading_stage_type = 0;
  p.peak_demand = p.clusters[3].centroid;
  return p;
}

/// Deterministic corpus: every run follows L 1 L 2 L 3 L.
std::vector<TrainingRun> deterministic_corpus(int n) {
  std::vector<TrainingRun> runs;
  for (int i = 0; i < n; ++i) {
    runs.push_back(TrainingRun{{0, 1, 0, 2, 0, 3, 0},
                               static_cast<std::uint64_t>(i % 5 + 1), 0});
  }
  return runs;
}

// --- FeatureEncoder ---

TEST(FeatureEncoder, WidthMatchesNames) {
  EncoderConfig cfg;
  FeatureEncoder enc(cfg, 4);
  const auto names = enc.feature_names();
  const auto row = enc.encode({1, 2}, 7, 1);
  EXPECT_EQ(row.size(), names.size());
}

TEST(FeatureEncoder, HistoryMostRecentFirst) {
  EncoderConfig cfg;
  cfg.history_len = 3;
  cfg.player_features = false;
  cfg.mode_feature = false;
  FeatureEncoder enc(cfg, 5);
  const auto row = enc.encode({7, 8, 9}, 1, 0);
  EXPECT_EQ(row[0], 9.0);  // hist_0 = most recent
  EXPECT_EQ(row[1], 8.0);
  EXPECT_EQ(row[2], 7.0);
  EXPECT_EQ(row[3], 3.0);  // position
}

TEST(FeatureEncoder, PadsShortHistory) {
  EncoderConfig cfg;
  cfg.history_len = 3;
  cfg.player_features = false;
  cfg.mode_feature = false;
  FeatureEncoder enc(cfg, 5);
  const auto row = enc.encode({2}, 1, 0);
  EXPECT_EQ(row[0], 2.0);
  EXPECT_EQ(row[1], 5.0);  // pad = num_types
  EXPECT_EQ(row[2], 5.0);
}

TEST(FeatureEncoder, PlayerHashStable) {
  double a0, a1, b0, b1;
  player_hash_floats(42, a0, a1);
  player_hash_floats(42, b0, b1);
  EXPECT_EQ(a0, b0);
  EXPECT_EQ(a1, b1);
  player_hash_floats(43, b0, b1);
  EXPECT_NE(a0, b0);
  EXPECT_GE(a0, 0.0);
  EXPECT_LT(a0, 1.0);
}

TEST(FeatureEncoder, ModeFeatureIncluded) {
  EncoderConfig cfg;
  cfg.player_features = false;
  FeatureEncoder enc(cfg, 4);
  const auto r0 = enc.encode({}, 1, 0);
  const auto r2 = enc.encode({}, 1, 2);
  EXPECT_NE(r0, r2);
}

// --- StagePredictor ---

TEST(StagePredictor, LearnsDeterministicChain) {
  const GameProfile p = toy_profile();
  PredictorConfig cfg;
  StagePredictor pred(&p, cfg);
  Rng rng(1);
  pred.train(deterministic_corpus(40), rng);
  EXPECT_TRUE(pred.trained());
  EXPECT_GT(pred.accuracy(), 0.99);
  EXPECT_EQ(pred.predict_next({}, 1, 0), 1);
  EXPECT_EQ(pred.predict_next({1}, 1, 0), 2);
  EXPECT_EQ(pred.predict_next({1, 2}, 1, 0), 3);
}

TEST(StagePredictor, PredictSequenceIterates) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(2);
  pred.train(deterministic_corpus(40), rng);
  const auto seq = pred.predict_sequence({}, 1, 0, 3);
  EXPECT_EQ(seq, (std::vector<int>{1, 2, 3}));
}

TEST(StagePredictor, RedundancyEq1) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(3);
  pred.train(deterministic_corpus(40), rng);
  // S = (1 − P) × M with P ≈ 1 → S ≈ 0.
  const ResourceVector s = pred.redundancy();
  EXPECT_LT(s.gpu(), 0.05 * p.peak_demand.gpu() + 1e-9);
  // The relationship is exact: S == (1−P)·M.
  const ResourceVector expect = (1.0 - pred.accuracy()) * p.peak_demand;
  EXPECT_EQ(s, expect);
}

TEST(StagePredictor, ReplaceModelRotates) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(4);
  pred.train(deterministic_corpus(40), rng);
  EXPECT_EQ(pred.model_kind(), ml::ModelKind::kDtc);
  pred.replace_model();
  EXPECT_EQ(pred.model_kind(), ml::ModelKind::kRf);
  EXPECT_EQ(pred.predict_next({1}, 1, 0), 2);  // retrained, still works
  pred.replace_model();
  EXPECT_EQ(pred.model_kind(), ml::ModelKind::kGbdt);
  pred.replace_model();
  EXPECT_EQ(pred.model_kind(), ml::ModelKind::kDtc);
}

// Cached predictions are keyed on generation(): every change of the model
// (train, each replace_model rotation, rebind_profile) must move it, and
// inference or outcome feedback must not.
TEST(StagePredictor, GenerationBumpsOnEveryFit) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(4);
  std::uint64_t last = pred.generation();
  auto expect_bumped = [&](const char* what) {
    EXPECT_NE(pred.generation(), last) << what;
    last = pred.generation();
  };
  pred.train(deterministic_corpus(40), rng);
  expect_bumped("train");
  (void)pred.predict_sequence({1}, 1, 0, 3);
  pred.record_outcome(false);
  EXPECT_EQ(pred.generation(), last) << "inference and feedback";
  for (int i = 0; i < 3; ++i) {
    pred.replace_model();
    expect_bumped(ml::model_kind_name(pred.model_kind()));
  }
  const GameProfile migrated = toy_profile();
  pred.rebind_profile(&migrated);
  expect_bumped("rebind_profile");
}

/// Every third run takes another path, so held-out accuracy depends on
/// the split.
std::vector<TrainingRun> noisy_corpus(int n) {
  std::vector<TrainingRun> corpus = deterministic_corpus(n);
  for (std::size_t i = 0; i < corpus.size(); i += 3) {
    corpus[i].stage_seq = {0, 1, 0, 3, 0, 2, 0};
  }
  return corpus;
}

// A replacement that takes its entry from the shared refit memo must write
// the same bundle as one that fits the entry afresh.
TEST(StagePredictor, RefitMemoHitMatchesFreshFit) {
  const GameProfile p = toy_profile();
  PredictorConfig cfg;
  cfg.model = ml::ModelKind::kRf;  // rotates to GBDT
  cfg.category = game::GameCategory::kMobile;  // per-player fits too
  StagePredictor trained(&p, cfg);
  Rng train_rng(6);
  trained.train(noisy_corpus(40), train_rng);

  const PredictorArtifact shared = trained.to_artifact();
  PredictorArtifact unshared = shared;
  unshared.refits = nullptr;

  const auto filler = StagePredictor::from_artifact(shared, &p);
  const auto hitter = StagePredictor::from_artifact(shared, &p);
  const auto fresh = StagePredictor::from_artifact(unshared, &p);
  filler->replace_model();
  hitter->replace_model();
  fresh->replace_model();
  ASSERT_EQ(hitter->model_kind(), ml::ModelKind::kGbdt);

  // The hitter took the filler's forests; the fresh predictor fitted its
  // own.
  const PredictorArtifact hit_art = hitter->to_artifact();
  const PredictorArtifact fresh_art = fresh->to_artifact();
  EXPECT_EQ(hit_art.pooled, filler->to_artifact().pooled);
  EXPECT_NE(hit_art.pooled, fresh_art.pooled);
  EXPECT_FALSE(hit_art.per_player.empty());

  std::ostringstream hit_bytes, fresh_bytes;
  hitter->save_bundle(hit_bytes);
  fresh->save_bundle(fresh_bytes);
  EXPECT_EQ(hit_bytes.str(), fresh_bytes.str());
}

// --- ModelRotation: replace_model adopts one seeded entry per kind ---

/// The rotation seed as the predictor documents it: SplitMix64 of the
/// FNV-1a hash of the game name, mixed with the kind.
std::uint64_t expected_rotation_seed(const std::string& game,
                                     ml::ModelKind kind) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : game) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return SplitMix64(h ^ static_cast<std::uint64_t>(kind)).next();
}

std::string bundle_bytes(const StagePredictor& pred) {
  std::ostringstream os;
  pred.save_bundle(os);
  return os.str();
}

/// A mobile-quadrant predictor trained on the noisy corpus, so every
/// entry has per-player forests and a split-dependent accuracy.
PredictorArtifact mobile_artifact(const GameProfile& p) {
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  StagePredictor trained(&p, cfg);
  Rng rng(17);
  trained.train(noisy_corpus(45), rng);
  return trained.to_artifact();
}

// Through a whole DTC -> RF -> GBDT -> DTC rotation, an entry another
// predictor put in the shared memo is bit-identical, bundle bytes and P,
// to the entry a predictor with a memo of its own fits, RF's bootstrap
// included; and each kind is fitted once per memo.
TEST(ModelRotation, CachedEntryMatchesFreshFitFromSeparateCache) {
  const bool saved = obs::enabled();
  obs::reset();
  obs::set_enabled(true);
  const GameProfile p = toy_profile();
  const PredictorArtifact shared = mobile_artifact(p);
  PredictorArtifact unshared = shared;
  unshared.refits = nullptr;
  const auto filler = StagePredictor::from_artifact(shared, &p);
  const auto cached = StagePredictor::from_artifact(shared, &p);
  const auto fresh = StagePredictor::from_artifact(unshared, &p);
  for (int i = 0; i < 3; ++i) {
    filler->replace_model();
    cached->replace_model();
    fresh->replace_model();
    const char* kind = ml::model_kind_name(cached->model_kind());
    EXPECT_EQ(cached->to_artifact().pooled, filler->to_artifact().pooled)
        << kind;
    EXPECT_NE(cached->to_artifact().pooled, fresh->to_artifact().pooled)
        << kind;
    EXPECT_FALSE(cached->to_artifact().per_player.empty()) << kind;
    EXPECT_EQ(cached->accuracy(), fresh->accuracy()) << kind;
    EXPECT_EQ(bundle_bytes(*cached), bundle_bytes(*fresh)) << kind;
  }
  // Three kinds, two memos: six fits; the cached predictor's three
  // rotations were hits.
  EXPECT_EQ(obs::metrics().counter_value("predictor.refit_memo.misses"), 6u);
  EXPECT_EQ(obs::metrics().counter_value("predictor.refit_memo.hits"), 3u);
  obs::set_enabled(saved);
}

// Whichever predictor asks first, the memo hands every predictor of one
// artifact the same forests: two predictors that rotate in different
// interleavings hold the same pointers at every kind, and those forests
// are the bytes a separate memo rotated in a third order makes.
TEST(ModelRotation, InterleavingsShareForests) {
  const GameProfile p = toy_profile();
  const PredictorArtifact shared = mobile_artifact(p);
  const auto a = StagePredictor::from_artifact(shared, &p);
  const auto b = StagePredictor::from_artifact(shared, &p);
  // a fills RF; b hits RF and fills GBDT; a hits GBDT and fills DTC; b
  // hits DTC.
  a->replace_model();
  b->replace_model();
  EXPECT_EQ(a->to_artifact().pooled, b->to_artifact().pooled);
  const std::string rf_bytes = bundle_bytes(*a);
  b->replace_model();
  a->replace_model();
  EXPECT_EQ(a->to_artifact().pooled, b->to_artifact().pooled);
  EXPECT_EQ(a->to_artifact().per_player, b->to_artifact().per_player);
  const std::string gbdt_bytes = bundle_bytes(*a);
  a->replace_model();
  b->replace_model();
  ASSERT_EQ(a->model_kind(), ml::ModelKind::kDtc);
  ASSERT_EQ(b->model_kind(), ml::ModelKind::kDtc);
  EXPECT_EQ(a->to_artifact().pooled, b->to_artifact().pooled);
  EXPECT_EQ(a->to_artifact().per_player, b->to_artifact().per_player);
  EXPECT_EQ(a->accuracy(), b->accuracy());

  // A separate memo, its first rotation two steps in: the GBDT entry
  // first, then RF's (after a wrap through DTC's).
  PredictorArtifact unshared = shared;
  unshared.refits = nullptr;
  const auto c = StagePredictor::from_artifact(unshared, &p);
  c->replace_model();
  c->replace_model();
  EXPECT_EQ(bundle_bytes(*c), gbdt_bytes);
  c->replace_model();
  c->replace_model();
  EXPECT_EQ(bundle_bytes(*c), rf_bytes);
}

// Every rotation entry is the fit that training its kind on the corpus
// from the (game, kind) seed makes: the rotated predictor writes the bundle
// bytes of a predictor trained that way, P included. So a rotation back to
// the trained kind takes that kind's seeded entry, not the trained model:
// DTC's full-corpus fit draws nothing, so only P can tell them apart.
TEST(ModelRotation, BackToTrainedKindTakesSeededEntry) {
  const GameProfile p = toy_profile();
  const PredictorArtifact art = mobile_artifact(p);
  ASSERT_EQ(art.cfg.model, ml::ModelKind::kDtc);
  const auto trained = StagePredictor::from_artifact(art, &p);
  const auto pred = StagePredictor::from_artifact(art, &p);
  for (int i = 0; i < 3; ++i) {
    pred->replace_model();
    PredictorConfig cfg = art.cfg;
    cfg.model = pred->model_kind();
    StagePredictor seeded(&p, cfg);
    Rng rng(expected_rotation_seed("toy", cfg.model));
    seeded.train(art.corpus, rng);
    EXPECT_EQ(bundle_bytes(*pred), bundle_bytes(seeded))
        << ml::model_kind_name(cfg.model);
  }
  ASSERT_EQ(pred->model_kind(), ml::ModelKind::kDtc);
  EXPECT_NE(pred->accuracy(), trained->accuracy())
      << "the corpus must make P depend on the split";

  // Every byte but the accuracy line is the trained predictor's.
  auto without_accuracy = [](std::string bundle) {
    const auto line = bundle.find("\naccuracy ");
    EXPECT_NE(line, std::string::npos);
    return bundle.erase(line, bundle.find('\n', line + 1) - line);
  };
  EXPECT_EQ(without_accuracy(bundle_bytes(*pred)),
            without_accuracy(bundle_bytes(*trained)));
}

TEST(StagePredictor, EvaluateModelAllKinds) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(5);
  pred.train(deterministic_corpus(60), rng);
  for (ml::ModelKind kind :
       {ml::ModelKind::kDtc, ml::ModelKind::kRf, ml::ModelKind::kGbdt}) {
    EXPECT_GT(pred.evaluate_model(kind, rng), 0.9)
        << ml::model_kind_name(kind);
  }
}

TEST(StagePredictor, ModeDisambiguatesBranches) {
  // Two modes with opposite chains: mode 0 → 1,2; mode 1 → 2,1.
  const GameProfile p = toy_profile();
  std::vector<TrainingRun> runs;
  for (int i = 0; i < 30; ++i) {
    runs.push_back(TrainingRun{{0, 1, 0, 2, 0}, 1, 0});
    runs.push_back(TrainingRun{{0, 2, 0, 1, 0}, 1, 1});
  }
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(6);
  pred.train(runs, rng);
  EXPECT_EQ(pred.predict_next({}, 1, 0), 1);
  EXPECT_EQ(pred.predict_next({}, 1, 1), 2);
  EXPECT_GT(pred.accuracy(), 0.95);
}

TEST(StagePredictor, MobilePerPlayerModels) {
  GameProfile p = toy_profile();
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  cfg.min_player_runs = 3;
  // Player 1 always plays 1→2→3; player 2 always 3→2→1.
  std::vector<TrainingRun> runs;
  for (int i = 0; i < 6; ++i) {
    runs.push_back(TrainingRun{{0, 1, 0, 2, 0, 3, 0}, 1, 0});
    runs.push_back(TrainingRun{{0, 3, 0, 2, 0, 1, 0}, 2, 0});
  }
  StagePredictor pred(&p, cfg);
  Rng rng(7);
  pred.train(runs, rng);
  EXPECT_EQ(pred.predict_next({}, 1, 0), 1);
  EXPECT_EQ(pred.predict_next({}, 2, 0), 3);
}

TEST(StagePredictor, LoadingStagesStrippedFromHistory) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(8);
  pred.train(deterministic_corpus(40), rng);
  // Histories never contain type 0; prediction never returns it either.
  for (int i = 0; i < 3; ++i) {
    std::vector<int> hist;
    for (int j = 0; j < i; ++j) hist.push_back(j + 1);
    EXPECT_NE(pred.predict_next(hist, 1, 0), 0);
  }
}

TEST(StagePredictor, OnlineAccuracySeedsFromOffline) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(31);
  pred.train(deterministic_corpus(40), rng);
  EXPECT_DOUBLE_EQ(pred.online_accuracy(), pred.accuracy());
  EXPECT_EQ(pred.online_outcomes(), 0u);
}

TEST(StagePredictor, OnlineMissesInflateRedundancy) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(32);
  pred.train(deterministic_corpus(40), rng);
  const double s_before = pred.redundancy().gpu();
  for (int i = 0; i < 50; ++i) pred.record_outcome(false);
  EXPECT_LT(pred.online_accuracy(), pred.accuracy());
  EXPECT_GT(pred.redundancy().gpu(), s_before);
  // Sustained hits recover.
  for (int i = 0; i < 300; ++i) pred.record_outcome(true);
  EXPECT_GT(pred.online_accuracy(), 0.95);
}

TEST(StagePredictor, Preconditions) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(9);
  EXPECT_THROW(pred.train({}, rng), ContractError);
  EXPECT_THROW(pred.predict_next({}, 1, 0), ContractError);
  PredictorConfig bad;
  bad.train_fraction = 1.0;
  EXPECT_THROW(StagePredictor(&p, bad), ContractError);
}

// --- predictor bundles (save_bundle / load_bundle) ---

TEST(StagePredictorBundle, RoundTripPreservesEverything) {
  const GameProfile p = toy_profile();
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  cfg.min_player_runs = 3;
  StagePredictor pred(&p, cfg);
  Rng rng(41);
  std::vector<TrainingRun> runs = deterministic_corpus(40);
  for (int i = 0; i < 6; ++i) {
    runs.push_back(TrainingRun{{0, 3, 0, 2, 0, 1, 0}, 9, 0});
  }
  pred.train(runs, rng);

  std::stringstream ss;
  pred.save_bundle(ss);
  const auto back = StagePredictor::load_bundle(ss, &p);
  EXPECT_TRUE(back->trained());
  EXPECT_EQ(back->model_kind(), pred.model_kind());
  EXPECT_EQ(back->accuracy(), pred.accuracy());
  EXPECT_TRUE(back->can_retrain());
  for (std::uint64_t player : {1u, 2u, 9u}) {
    EXPECT_EQ(back->predict_next({}, player, 0),
              pred.predict_next({}, player, 0));
    EXPECT_EQ(back->predict_sequence({1}, player, 0, 3),
              pred.predict_sequence({1}, player, 0, 3));
  }
}

/// A saved bundle with its `corpus N` block (the count line plus its N
/// `run` lines) replaced by `corpus 0`.
std::string without_corpus(const std::string& bundle) {
  const auto begin = bundle.find("\ncorpus ");
  const auto end = bundle.find("\npooled\n", begin);
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  std::string out = bundle;
  out.replace(begin, end - begin, "\ncorpus 0");
  return out;
}

TEST(StagePredictorBundle, CorpusFreeLoadCannotRetrain) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(42);
  pred.train(deterministic_corpus(40), rng);
  std::stringstream saved;
  pred.save_bundle(saved);
  std::stringstream ss(without_corpus(saved.str()));
  const auto back = StagePredictor::load_bundle(ss, &p);
  EXPECT_FALSE(back->can_retrain());
  EXPECT_EQ(back->predict_next({1}, 1, 0), pred.predict_next({1}, 1, 0));
  EXPECT_THROW(back->replace_model(), std::runtime_error);
  EXPECT_THROW(back->evaluate_model(ml::ModelKind::kRf, rng),
               std::runtime_error);
}

TEST(StagePredictorBundle, TruncatedAndCorruptRejected) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(43);
  pred.train(deterministic_corpus(40), rng);
  std::stringstream ss;
  pred.save_bundle(ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 3));
  EXPECT_THROW(StagePredictor::load_bundle(cut, &p), std::runtime_error);
  std::string skewed = full;
  skewed.replace(skewed.find("cocg-predictor-v1"), 17, "cocg-predictor-v8");
  std::stringstream sk(skewed);
  EXPECT_THROW(StagePredictor::load_bundle(sk, &p), std::runtime_error);
}

TEST(StagePredictorBundle, ModelKindMismatchRejected) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(45);
  pred.train(deterministic_corpus(40), rng);
  ASSERT_EQ(pred.model_kind(), ml::ModelKind::kDtc);
  std::stringstream ss;
  pred.save_bundle(ss);
  // The header claims RF, but the pooled forest on disk is a DTC.
  std::string edited = ss.str();
  const auto at = edited.find("\nmodel DTC\n");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 11, "\nmodel RF\n");
  std::stringstream in(edited);
  try {
    StagePredictor::load_bundle(in, &p);
    FAIL() << "model kind mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos)
        << e.what();
  }
}

TEST(StagePredictorBundle, PerPlayerForestWiderThanEncoderRejected) {
  const GameProfile p = toy_profile();
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  StagePredictor pred(&p, cfg);
  Rng rng(46);
  std::vector<TrainingRun> runs = deterministic_corpus(40);
  for (int i = 0; i < 6; ++i) {
    runs.push_back(TrainingRun{{0, 3, 0, 2, 0, 1, 0}, 9, 0});
  }
  pred.train(runs, rng);
  std::stringstream ss;
  pred.save_bundle(ss);
  // Player 9's forest claims one feature more than the encoder emits; the
  // pooled forest is untouched.
  std::string edited = ss.str();
  const auto player = edited.find("\nplayer 9\n");
  ASSERT_NE(player, std::string::npos);
  const auto at = edited.find("\nfeatures ", player);
  ASSERT_NE(at, std::string::npos);
  const auto end = edited.find('\n', at + 1);
  const auto wider = pred.encoder().feature_names().size() + 1;
  edited.replace(at, end - at, "\nfeatures " + std::to_string(wider));
  std::stringstream in(edited);
  try {
    StagePredictor::load_bundle(in, &p);
    FAIL() << "per-player forest wider than the encoder accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("player 9"), std::string::npos)
        << e.what();
  }
}

TEST(StagePredictorBundle, MismatchedProfileRejected) {
  const GameProfile p = toy_profile();
  StagePredictor pred(&p, PredictorConfig{});
  Rng rng(44);
  pred.train(deterministic_corpus(40), rng);
  std::stringstream ss;
  pred.save_bundle(ss);
  // A profile with a different stage-type catalog cannot host the model.
  GameProfile smaller = toy_profile();
  smaller.stage_types.resize(2);
  EXPECT_THROW(StagePredictor::load_bundle(ss, &smaller),
               std::runtime_error);
}

// --- end-to-end offline pipeline (train_game) ---

TEST(Offline, TrainGameProducesWorkingBundle) {
  const game::GameSpec g = game::make_contra();
  OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 12;
  cfg.seed = 11;
  const TrainedGame tg = train_game(g, cfg);
  EXPECT_EQ(tg.spec, &g);
  ASSERT_NE(tg.profile, nullptr);
  ASSERT_NE(tg.predictor, nullptr);
  EXPECT_EQ(tg.profile->num_clusters(), 2);
  EXPECT_GT(tg.predictor->accuracy(), 0.9);  // web games are near-trivial
  EXPECT_GT(tg.mean_run_duration_ms, 0);
  EXPECT_EQ(tg.chosen_k, 2);
}

TEST(Offline, TrainSuiteKeysByName) {
  OfflineConfig cfg;
  cfg.profiling_runs = 5;
  cfg.corpus_runs = 8;
  const std::vector<game::GameSpec> suite = {game::make_contra(),
                                             game::make_genshin()};
  const auto models = train_suite(suite, cfg);
  ASSERT_EQ(models.size(), 2u);
  EXPECT_TRUE(models.count("Contra"));
  EXPECT_TRUE(models.count("Genshin Impact"));
  // The bundle's predictor points at the bundle's own (heap) profile —
  // moves into the map must not dangle.
  const auto& tg = models.at("Genshin Impact");
  EXPECT_EQ(tg.profile->game_name, "Genshin Impact");
  EXPECT_NO_THROW(tg.predictor->predict_next({}, 1, 0));
}

TEST(Offline, Fig15AccuracyShape) {
  // DTC on the paper suite: ≥90% for web/console/MOBA-style games.
  OfflineConfig cfg;
  cfg.profiling_runs = 12;
  cfg.corpus_runs = 60;
  cfg.seed = 13;
  for (const auto& name : {"Contra", "DOTA2"}) {
    const auto tg = train_game(game::game_by_name(name), cfg);
    EXPECT_GT(tg.predictor->accuracy(), 0.9) << name;
  }
}

}  // namespace
}  // namespace cocg::core
