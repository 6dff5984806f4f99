#include "core/stage_predictor.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "core/features.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/profile_io.h"
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
    st.max_duration_ms = 60000;
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

/// A predictor trained on `runs` over a copy of `p`, drawing from `rng`,
/// in a bundle that read_bundle accepts once written.
StagePredictor trained(const GameProfile& p, const PredictorConfig& cfg,
                       std::vector<TrainingRun> runs, Rng& rng) {
  GameBundle b = train_predictor(std::make_shared<const GameProfile>(p),
                                 cfg, std::move(runs), rng);
  b.chosen_k = p.num_clusters();
  return StagePredictor(std::make_shared<const GameBundle>(std::move(b)));
}

TEST(StagePredictor, LearnsDeterministicChain) {
  const GameProfile p = toy_profile();
  PredictorConfig cfg;
  Rng rng(1);
  const StagePredictor pred = trained(p, cfg, deterministic_corpus(40), rng);
  EXPECT_GT(pred.accuracy(), 0.99);
  EXPECT_EQ(pred.predict_next({}, 1, 0), 1);
  EXPECT_EQ(pred.predict_next({1}, 1, 0), 2);
  EXPECT_EQ(pred.predict_next({1, 2}, 1, 0), 3);
}

TEST(StagePredictor, PredictSequenceIterates) {
  const GameProfile p = toy_profile();
  Rng rng(2);
  const StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
  const auto seq = pred.predict_sequence({}, 1, 0, 3);
  EXPECT_EQ(seq, (std::vector<int>{1, 2, 3}));
}

TEST(StagePredictor, RedundancyEq1) {
  const GameProfile p = toy_profile();
  Rng rng(3);
  const StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
  // S = (1 − P) × M with P ≈ 1 → S ≈ 0.
  const ResourceVector s = pred.redundancy();
  EXPECT_LT(s.gpu(), 0.05 * p.peak_demand.gpu() + 1e-9);
  // The relationship is exact: S == (1−P)·M.
  const ResourceVector expect = (1.0 - pred.accuracy()) * p.peak_demand;
  EXPECT_EQ(s, expect);
}

TEST(StagePredictor, ReplaceModelRotates) {
  const GameProfile p = toy_profile();
  Rng rng(4);
  StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
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
// (each replace_model rotation, continuing the lineage over a migrated
// bundle) must move it, and inference or outcome feedback must not.
TEST(StagePredictor, GenerationBumpsOnEveryFit) {
  const GameProfile p = toy_profile();
  Rng rng(4);
  StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
  std::uint64_t last = pred.generation();
  auto expect_bumped = [&](const StagePredictor& now, const char* what) {
    EXPECT_NE(now.generation(), last) << what;
    last = now.generation();
  };
  (void)pred.predict_sequence({1}, 1, 0, 3);
  pred.record_outcome(false);
  EXPECT_EQ(pred.generation(), last) << "inference and feedback";
  for (int i = 0; i < 3; ++i) {
    pred.replace_model();
    expect_bumped(pred, ml::model_kind_name(pred.model_kind()));
  }
  auto migrated = std::make_shared<GameBundle>(*pred.bundle());
  migrated->profile = std::make_shared<const GameProfile>(toy_profile());
  migrated->refits = std::make_shared<RefitMemo>();
  const StagePredictor continued(migrated, pred);
  expect_bumped(continued, "continued over a migrated bundle");
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

/// `b` with a refit memo of its own.
std::shared_ptr<const GameBundle> with_own_memo(
    const std::shared_ptr<const GameBundle>& b) {
  auto out = std::make_shared<GameBundle>(*b);
  out->refits = std::make_shared<RefitMemo>();
  return out;
}

/// The bytes of `pred`'s bundle with its active model in place of the
/// trained one: what a bundle trained to that model would write.
std::string bundle_bytes(const StagePredictor& pred) {
  GameBundle b = *pred.bundle();
  b.cfg.model = pred.model_kind();
  b.trained = pred.active();
  std::ostringstream os;
  write_bundle(b, os);
  return os.str();
}

// A replacement that takes its entry from the shared refit memo must write
// the same bundle as one that fits the entry afresh.
TEST(StagePredictor, RefitMemoHitMatchesFreshFit) {
  const GameProfile p = toy_profile();
  PredictorConfig cfg;
  cfg.model = ml::ModelKind::kRf;  // rotates to GBDT
  cfg.category = game::GameCategory::kMobile;  // per-player fits too
  Rng train_rng(6);
  const auto shared =
      trained(p, cfg, noisy_corpus(40), train_rng).bundle();
  const auto unshared = with_own_memo(shared);

  const auto filler = std::make_unique<StagePredictor>(shared);
  const auto hitter = std::make_unique<StagePredictor>(shared);
  const auto fresh = std::make_unique<StagePredictor>(unshared);
  filler->replace_model();
  hitter->replace_model();
  fresh->replace_model();
  ASSERT_EQ(hitter->model_kind(), ml::ModelKind::kGbdt);

  // The hitter took the filler's forests; the fresh predictor fitted its
  // own.
  EXPECT_EQ(hitter->active().pooled, filler->active().pooled);
  EXPECT_NE(hitter->active().pooled, fresh->active().pooled);
  EXPECT_FALSE(hitter->active().per_player.empty());
  EXPECT_EQ(bundle_bytes(*hitter), bundle_bytes(*fresh));
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

/// A mobile-quadrant bundle trained on the noisy corpus, so every entry
/// has per-player forests and a split-dependent accuracy.
std::shared_ptr<const GameBundle> mobile_bundle(const GameProfile& p) {
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  Rng rng(17);
  return trained(p, cfg, noisy_corpus(45), rng).bundle();
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
  const auto shared = mobile_bundle(p);
  const auto unshared = with_own_memo(shared);
  const auto filler = std::make_unique<StagePredictor>(shared);
  const auto cached = std::make_unique<StagePredictor>(shared);
  const auto fresh = std::make_unique<StagePredictor>(unshared);
  for (int i = 0; i < 3; ++i) {
    filler->replace_model();
    cached->replace_model();
    fresh->replace_model();
    const char* kind = ml::model_kind_name(cached->model_kind());
    EXPECT_EQ(cached->active().pooled, filler->active().pooled) << kind;
    EXPECT_NE(cached->active().pooled, fresh->active().pooled) << kind;
    EXPECT_FALSE(cached->active().per_player.empty()) << kind;
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
// bundle the same forests: two predictors that rotate in different
// interleavings hold the same pointers at every kind, and those forests
// are the bytes a separate memo rotated in a third order makes.
TEST(ModelRotation, InterleavingsShareForests) {
  const GameProfile p = toy_profile();
  const auto shared = mobile_bundle(p);
  const auto a = std::make_unique<StagePredictor>(shared);
  const auto b = std::make_unique<StagePredictor>(shared);
  // a fills RF; b hits RF and fills GBDT; a hits GBDT and fills DTC; b
  // hits DTC.
  a->replace_model();
  b->replace_model();
  EXPECT_EQ(a->active().pooled, b->active().pooled);
  const std::string rf_bytes = bundle_bytes(*a);
  b->replace_model();
  a->replace_model();
  EXPECT_EQ(a->active().pooled, b->active().pooled);
  EXPECT_EQ(a->active().per_player, b->active().per_player);
  const std::string gbdt_bytes = bundle_bytes(*a);
  a->replace_model();
  b->replace_model();
  ASSERT_EQ(a->model_kind(), ml::ModelKind::kDtc);
  ASSERT_EQ(b->model_kind(), ml::ModelKind::kDtc);
  EXPECT_EQ(a->active().pooled, b->active().pooled);
  EXPECT_EQ(a->active().per_player, b->active().per_player);
  EXPECT_EQ(a->accuracy(), b->accuracy());

  // A separate memo, its first rotation two steps in: the GBDT entry
  // first, then RF's (after a wrap through DTC's).
  const auto c = std::make_unique<StagePredictor>(with_own_memo(shared));
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
  const auto art = mobile_bundle(p);
  ASSERT_EQ(art->cfg.model, ml::ModelKind::kDtc);
  const auto trained_pred = std::make_unique<StagePredictor>(art);
  const auto pred = std::make_unique<StagePredictor>(art);
  for (int i = 0; i < 3; ++i) {
    pred->replace_model();
    PredictorConfig cfg = art->cfg;
    cfg.model = pred->model_kind();
    Rng rng(expected_rotation_seed("toy", cfg.model));
    const StagePredictor seeded = trained(p, cfg, *art->corpus, rng);
    EXPECT_EQ(bundle_bytes(*pred), bundle_bytes(seeded))
        << ml::model_kind_name(cfg.model);
  }
  ASSERT_EQ(pred->model_kind(), ml::ModelKind::kDtc);
  EXPECT_NE(pred->accuracy(), trained_pred->accuracy())
      << "the corpus must make P depend on the split";

  // Every byte but the accuracy line is the trained predictor's.
  auto without_accuracy = [](std::string bundle) {
    const auto line = bundle.find("\naccuracy ");
    EXPECT_NE(line, std::string::npos);
    return bundle.erase(line, bundle.find('\n', line + 1) - line);
  };
  EXPECT_EQ(without_accuracy(bundle_bytes(*pred)),
            without_accuracy(bundle_bytes(*trained_pred)));
}

TEST(StagePredictor, EvaluateModelAllKinds) {
  const GameProfile p = toy_profile();
  Rng rng(5);
  const StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(60), rng);
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
  Rng rng(6);
  const StagePredictor pred = trained(p, PredictorConfig{}, runs, rng);
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
  Rng rng(7);
  const StagePredictor pred = trained(p, cfg, runs, rng);
  EXPECT_EQ(pred.predict_next({}, 1, 0), 1);
  EXPECT_EQ(pred.predict_next({}, 2, 0), 3);
}

TEST(StagePredictor, LoadingStagesStrippedFromHistory) {
  const GameProfile p = toy_profile();
  Rng rng(8);
  const StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
  // Histories never contain type 0; prediction never returns it either.
  for (int i = 0; i < 3; ++i) {
    std::vector<int> hist;
    for (int j = 0; j < i; ++j) hist.push_back(j + 1);
    EXPECT_NE(pred.predict_next(hist, 1, 0), 0);
  }
}

TEST(StagePredictor, OnlineAccuracySeedsFromOffline) {
  const GameProfile p = toy_profile();
  Rng rng(31);
  const StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
  EXPECT_DOUBLE_EQ(pred.online_accuracy(), pred.accuracy());
  EXPECT_EQ(pred.online_outcomes(), 0u);
}

TEST(StagePredictor, OnlineMissesInflateRedundancy) {
  const GameProfile p = toy_profile();
  Rng rng(32);
  StagePredictor pred =
      trained(p, PredictorConfig{}, deterministic_corpus(40), rng);
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
  Rng rng(9);
  EXPECT_THROW(trained(p, PredictorConfig{}, {}, rng), ContractError);
  PredictorConfig bad;
  bad.train_fraction = 1.0;
  EXPECT_THROW(trained(p, bad, deterministic_corpus(40), rng),
               ContractError);
  // A predictor runs over a trained bundle only.
  EXPECT_THROW(StagePredictor(nullptr), ContractError);
  auto untrained = std::make_shared<GameBundle>(
      *trained(p, PredictorConfig{}, deterministic_corpus(40), rng).bundle());
  untrained->trained = RefitMemo::Entry{};
  EXPECT_THROW(StagePredictor{untrained}, ContractError);
}

// --- the predictor block of a bundle (write_bundle / read_bundle) ---

/// The bundle text of a predictor trained on `runs` over the toy profile.
std::string toy_bundle_text(const PredictorConfig& cfg,
                            std::vector<TrainingRun> runs, Rng& rng) {
  return bundle_bytes(trained(toy_profile(), cfg, std::move(runs), rng));
}

StagePredictor load(const std::string& text) {
  std::istringstream in(text);
  return StagePredictor(std::make_shared<const GameBundle>(read_bundle(in)));
}

/// Deterministic runs plus six runs of player 9 in reverse, so a mobile
/// bundle has a personal model for player 9.
std::vector<TrainingRun> corpus_with_player_9() {
  std::vector<TrainingRun> runs = deterministic_corpus(40);
  for (int i = 0; i < 6; ++i) {
    runs.push_back(TrainingRun{{0, 3, 0, 2, 0, 1, 0}, 9, 0});
  }
  return runs;
}

TEST(StagePredictorBundle, RoundTripPreservesEverything) {
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  cfg.min_player_runs = 3;
  Rng rng(41);
  const StagePredictor pred =
      trained(toy_profile(), cfg, corpus_with_player_9(), rng);
  const std::string text = bundle_bytes(pred);
  const StagePredictor back = load(text);
  EXPECT_EQ(back.model_kind(), pred.model_kind());
  EXPECT_EQ(back.accuracy(), pred.accuracy());
  EXPECT_TRUE(back.can_retrain());
  EXPECT_EQ(back.active().per_player.size(),
            pred.active().per_player.size());
  EXPECT_EQ(back.active().per_player.count(9), 1u);
  EXPECT_EQ(back.bundle()->corpus->size(), pred.bundle()->corpus->size());
  for (std::uint64_t player : {1u, 2u, 9u}) {
    EXPECT_EQ(back.predict_next({}, player, 0),
              pred.predict_next({}, player, 0));
    EXPECT_EQ(back.predict_sequence({1}, player, 0, 3),
              pred.predict_sequence({1}, player, 0, 3));
  }
  // Load → write is a fixed point.
  EXPECT_EQ(bundle_bytes(back), text);
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
  Rng rng(42);
  const std::string text =
      toy_bundle_text(PredictorConfig{}, deterministic_corpus(40), rng);
  const StagePredictor pred = load(text);
  StagePredictor back = load(without_corpus(text));
  EXPECT_FALSE(back.can_retrain());
  EXPECT_EQ(back.predict_next({1}, 1, 0), pred.predict_next({1}, 1, 0));
  EXPECT_THROW(back.replace_model(), std::runtime_error);
  EXPECT_THROW(back.evaluate_model(ml::ModelKind::kRf, rng),
               std::runtime_error);
}

TEST(StagePredictorBundle, TruncatedAndCorruptRejected) {
  Rng rng(43);
  const std::string full =
      toy_bundle_text(PredictorConfig{}, deterministic_corpus(40), rng);
  std::stringstream cut(full.substr(0, full.size() / 3));
  EXPECT_THROW(read_bundle(cut), std::runtime_error);
  std::string skewed = full;
  skewed.replace(skewed.find("cocg-predictor-v1"), 17, "cocg-predictor-v8");
  std::stringstream sk(skewed);
  EXPECT_THROW(read_bundle(sk), std::runtime_error);
}

/// Loading `text` must fail naming `line` — its number and its text.
void expect_rejected_at(const std::string& text, const std::string& line,
                        const std::string& why) {
  std::istringstream lines(text);
  std::string l;
  int n = 0;
  for (int i = 1; std::getline(lines, l); ++i) {
    if (l == line) {
      n = i;
      break;
    }
  }
  ASSERT_GT(n, 0) << "no line '" << line << "'";
  std::istringstream in(text);
  try {
    read_bundle(in);
    ADD_FAILURE() << why << " accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(n) + ": '" + line + "'"),
              std::string::npos)
        << what;
  }
}

// A bundle is checked against its profile when it is read, not when a
// predictor is first made from it.
TEST(GameBundle, ForestOfOtherKindRejectedAtLoad) {
  Rng rng(45);
  const std::string text =
      toy_bundle_text(PredictorConfig{}, deterministic_corpus(40), rng);
  // The header claims RF, but the pooled forest on disk is a DTC.
  std::string edited = text;
  const auto at = edited.find("\nmodel DTC\n");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 11, "\nmodel RF\n");
  expect_rejected_at(edited, "pooled", "a DTC forest under 'model RF'");
}

TEST(GameBundle, ForestWiderThanEncoderRejectedAtLoad) {
  PredictorConfig cfg;
  cfg.category = game::GameCategory::kMobile;
  Rng rng(46);
  const std::string text = toy_bundle_text(cfg, corpus_with_player_9(), rng);
  // Player 9's forest claims one feature more than the encoder emits; the
  // pooled forest is untouched.
  std::string edited = text;
  const auto player = edited.find("\nplayer 9\n");
  ASSERT_NE(player, std::string::npos);
  const auto at = edited.find("\nfeatures ", player);
  ASSERT_NE(at, std::string::npos);
  const auto end = edited.find('\n', at + 1);
  const auto wider = load(text).encoder().feature_names().size() + 1;
  edited.replace(at, end - at, "\nfeatures " + std::to_string(wider));
  expect_rejected_at(edited, "player 9",
                     "a per-player forest wider than the encoder");
}

TEST(GameBundle, ForestBeyondCatalogRejectedAtLoad) {
  Rng rng(44);
  const std::string text =
      toy_bundle_text(PredictorConfig{}, deterministic_corpus(40), rng);
  // The same predictor block after a profile whose catalog lacks stage
  // type 3, which the forests predict.
  GameProfile smaller = toy_profile();
  smaller.stage_types.resize(3);
  std::ostringstream profile_block;
  write_profile(smaller, profile_block);
  const auto begin = text.find("cocg-profile-");
  const auto end = text.find("cocg-predictor-");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::string edited = text;
  edited.replace(begin, end - begin, profile_block.str());
  expect_rejected_at(edited, "pooled",
                     "forests predicting stage types the catalog lacks");
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
  ASSERT_NE(tg.predictor, nullptr);
  EXPECT_EQ(tg.profile().num_clusters(), 2);
  EXPECT_GT(tg.predictor->accuracy(), 0.9);  // web games are near-trivial
  EXPECT_GT(tg.bundle().mean_run_duration_ms, 0);
  EXPECT_EQ(tg.bundle().chosen_k, 2);
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
  // The predictor holds its bundle by pointer — moves into the map must
  // not dangle.
  const auto& tg = models.at("Genshin Impact");
  EXPECT_EQ(tg.profile().game_name, "Genshin Impact");
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
