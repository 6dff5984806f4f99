#include "core/stage_predictor.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "obs/obs.h"

namespace cocg::core {

StagePredictor::StagePredictor(const GameProfile* profile,
                               PredictorConfig cfg)
    : profile_(profile),
      cfg_(cfg),
      encoder_(cfg.encoder, profile ? profile->num_stage_types() : 1) {
  COCG_EXPECTS(profile != nullptr);
  COCG_EXPECTS(cfg.train_fraction > 0.0 && cfg.train_fraction < 1.0);
}

std::vector<int> StagePredictor::exec_only(const std::vector<int>& seq) const {
  std::vector<int> out;
  out.reserve(seq.size());
  for (int st : seq) {
    if (st >= 0 && st < profile_->num_stage_types() &&
        !profile_->stage_type(st).loading) {
      out.push_back(st);
    }
  }
  return out;
}

ml::Dataset StagePredictor::build_dataset(
    const std::vector<TrainingRun>& runs) const {
  ml::Dataset data(encoder_.feature_names());
  for (const auto& run : runs) {
    const auto exec = exec_only(run.stage_seq);
    // Pairs (history prefix → next stage); the empty-history pair teaches
    // the opening stage.
    for (std::size_t i = 0; i + 1 <= exec.size(); ++i) {
      std::vector<int> hist(exec.begin(),
                            exec.begin() + static_cast<std::ptrdiff_t>(i));
      data.add(encoder_.encode(hist, run.player_id, run.script_idx),
               exec[i]);
    }
  }
  return data;
}

namespace {

double accuracy_on(const ml::CompiledForest& model, const ml::Dataset& test) {
  std::vector<int> pred;
  pred.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    pred.push_back(model.predict(test.x(i)));
  }
  return ml::accuracy(test.labels(), pred);
}

/// The seed of `game`'s rotation fit of `kind`: SplitMix64 of the FNV-1a
/// hash of the game name, mixed with the kind. It names no shard, time or
/// caller, so a rotation entry is the same whichever predictor fills it.
std::uint64_t rotation_seed(const std::string& game, ml::ModelKind kind) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : game) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return SplitMix64(h ^ static_cast<std::uint64_t>(kind)).next();
}

}  // namespace

void StagePredictor::train(const std::vector<TrainingRun>& runs, Rng& rng) {
  COCG_EXPECTS_MSG(!runs.empty(), "training needs at least one run");
  corpus_ = runs;
  refits_ = std::make_shared<RefitMemo>();
  adopt(fit_kind(cfg_.model, rng));
}

RefitMemo::Entry StagePredictor::fit_kind(ml::ModelKind kind,
                                          Rng& rng) const {
  const ml::Dataset all = build_dataset(corpus_);
  COCG_CHECK_MSG(!all.empty(), "corpus produced no training pairs");
  RefitMemo::Entry entry;

  // Pooled model with held-out accuracy (the paper's 75/25 split).
  auto [train, test] = all.split(cfg_.train_fraction, rng);
  if (train.empty() || test.empty()) {
    train = all;
    test = all;
  }
  entry.accuracy = accuracy_on(*ml::fit_model(kind, train, rng), test);

  // Refit on everything for online use.
  entry.pooled = ml::fit_model(kind, all, rng);
  // Mobile quadrant: personal models for players with enough history
  // (§IV-B1 "finely establish a training set for each individual player").
  if (cfg_.category == game::GameCategory::kMobile) {
    std::map<std::uint64_t, std::vector<TrainingRun>> by_player;
    for (const auto& run : corpus_) by_player[run.player_id].push_back(run);
    for (const auto& [pid, runs] : by_player) {
      if (runs.size() < cfg_.min_player_runs) continue;
      const ml::Dataset pd = build_dataset(runs);
      if (pd.empty()) continue;
      entry.per_player[pid] = ml::fit_model(kind, pd, rng);
    }
  }
  return entry;
}

void StagePredictor::adopt(RefitMemo::Entry entry) {
  ++generation_;
  accuracy_ = entry.accuracy;
  pooled_ = std::move(entry.pooled);
  per_player_ = std::move(entry.per_player);
}

int StagePredictor::predict_next(const std::vector<int>& exec_history,
                                 std::uint64_t player_id,
                                 std::size_t mode) const {
  COCG_EXPECTS_MSG(trained(), "predict before train");
  const auto row = encoder_.encode(exec_history, player_id, mode);
  auto it = per_player_.find(player_id);
  if (it != per_player_.end()) return it->second->predict(row);
  return pooled_->predict(row);
}

std::vector<int> StagePredictor::predict_sequence(
    const std::vector<int>& exec_history, std::uint64_t player_id,
    std::size_t mode, int n) const {
  COCG_EXPECTS(n >= 0);
  std::vector<int> hist = exec_history;
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int next = predict_next(hist, player_id, mode);
    out.push_back(next);
    hist.push_back(next);
  }
  return out;
}

void StagePredictor::record_outcome(bool hit) {
  constexpr double kAlpha = 0.05;  // slow EMA: tens of outcomes to move P
  if (online_n_ == 0) online_acc_ = accuracy_;
  online_acc_ = kAlpha * (hit ? 1.0 : 0.0) + (1.0 - kAlpha) * online_acc_;
  ++online_n_;
}

double StagePredictor::online_accuracy() const {
  return online_n_ == 0 ? accuracy_ : online_acc_;
}

ResourceVector StagePredictor::redundancy() const {
  // S = (1 − P) × M — Eq. 1, with M the game's peak consumption. P is the
  // offline held-out accuracy refined by live outcomes once any exist.
  return (1.0 - online_accuracy()) * profile_->peak_demand;
}

void StagePredictor::replace_model() {
  // Guard *before* rotating the kind: a failed swap must leave the active
  // model and cfg_.model consistent.
  if (!can_retrain()) {
    throw std::runtime_error(
        "replace_model: predictor was restored from a bundle without its "
        "training corpus, nothing to retrain on");
  }
  switch (cfg_.model) {
    case ml::ModelKind::kDtc: cfg_.model = ml::ModelKind::kRf; break;
    case ml::ModelKind::kRf: cfg_.model = ml::ModelKind::kGbdt; break;
    case ml::ModelKind::kGbdt: cfg_.model = ml::ModelKind::kDtc; break;
  }
  bool hit = false;
  adopt(refits_->get(
      cfg_.model,
      [&] {
        Rng rng(rotation_seed(profile_->game_name, cfg_.model));
        return fit_kind(cfg_.model, rng);
      },
      hit));
  obs::metrics()
      .counter(hit ? "predictor.refit_memo.hits"
                   : "predictor.refit_memo.misses")
      .add();
}

void StagePredictor::rebind_profile(const GameProfile* profile) {
  COCG_EXPECTS(profile != nullptr);
  COCG_EXPECTS_MSG(
      profile->num_stage_types() == profile_->num_stage_types(),
      "rebind requires an identical stage-type catalog");
  profile_ = profile;
  ++generation_;
  // The memo's fits were made against the old profile.
  refits_ = std::make_shared<RefitMemo>();
}

double StagePredictor::evaluate_model(ml::ModelKind kind, Rng& rng) const {
  if (!can_retrain()) {
    throw std::runtime_error(
        "evaluate_model: predictor was restored without its training "
        "corpus, nothing to evaluate on");
  }
  const ml::Dataset all = build_dataset(corpus_);
  auto [train, test] = all.split(cfg_.train_fraction, rng);
  if (train.empty() || test.empty()) return 1.0;
  return accuracy_on(*ml::fit_model(kind, train, rng), test);
}

// ---------------------------------------------------------------------------
// Artifacts and bundles
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kBundleMagic = "cocg-predictor-v1";
constexpr const char* kBundleVersionPrefix = "cocg-predictor-";

}  // namespace

PredictorArtifact StagePredictor::to_artifact() const {
  COCG_EXPECTS_MSG(trained(), "to_artifact before train");
  PredictorArtifact art;
  art.cfg = cfg_;
  art.accuracy = accuracy_;
  art.pooled = pooled_;
  art.per_player = per_player_;
  art.corpus = corpus_;
  art.refits = refits_;
  return art;
}

namespace {

/// Every forest a predictor adopts must be trained, of the kind its
/// `model` line names, and fit the encoder's rows and the profile's
/// stage-type catalog, so no loaded forest can fail a predict precondition.
void check_forest(const std::shared_ptr<const ml::CompiledForest>& forest,
                  ml::ModelKind kind, int width, int num_types,
                  const std::string& what) {
  if (forest == nullptr || !forest->trained()) {
    throw std::runtime_error("predictor artifact has no trained " + what +
                             " model");
  }
  if (forest->kind() != kind) {
    throw std::runtime_error(
        "predictor artifact model kind mismatch: " + what + " forest is " +
        ml::model_kind_name(forest->kind()) + ", model line says " +
        ml::model_kind_name(kind));
  }
  if (forest->num_features() > width) {
    throw std::runtime_error(
        "predictor artifact does not match the profile's stage-type "
        "catalog (" + what + " model expects more features than the "
        "encoder emits)");
  }
  if (forest->num_classes() > num_types) {
    throw std::runtime_error(
        "predictor artifact does not match the profile's stage-type "
        "catalog (" + what + " model predicts stage types the profile "
        "lacks)");
  }
}

}  // namespace

std::unique_ptr<StagePredictor> StagePredictor::from_artifact(
    const PredictorArtifact& artifact, const GameProfile* profile) {
  auto p = std::make_unique<StagePredictor>(profile, artifact.cfg);
  const auto width = static_cast<int>(p->encoder_.feature_names().size());
  const auto num_types = static_cast<int>(profile->num_stage_types());
  check_forest(artifact.pooled, artifact.cfg.model, width, num_types,
               "pooled");
  for (const auto& [pid, forest] : artifact.per_player) {
    check_forest(forest, artifact.cfg.model, width, num_types,
                 "player " + std::to_string(pid));
  }
  // A corpus is either absent (no retraining) or able to retrain, so the
  // §IV-B2 fallback cannot fail mid-run.
  if (!artifact.corpus.empty() &&
      std::none_of(artifact.corpus.begin(), artifact.corpus.end(),
                   [&](const TrainingRun& run) {
                     return !p->exec_only(run.stage_seq).empty();
                   })) {
    throw std::runtime_error(
        "predictor artifact corpus of " +
        std::to_string(artifact.corpus.size()) +
        " run(s) yields no training pair (no run has an execution stage "
        "of the profile's catalog)");
  }
  p->corpus_ = artifact.corpus;
  p->refits_ = artifact.refits != nullptr ? artifact.refits
                                          : std::make_shared<RefitMemo>();
  p->accuracy_ = artifact.accuracy;
  p->pooled_ = artifact.pooled;
  p->per_player_ = artifact.per_player;
  return p;
}

void StagePredictor::save_bundle(std::ostream& os) const {
  COCG_EXPECTS_MSG(trained(), "save_bundle before train");
  FullPrecision precision(os);
  os << kBundleMagic << '\n';
  os << "model " << ml::model_kind_name(cfg_.model) << '\n';
  os << "category " << static_cast<int>(cfg_.category) << '\n';
  os << "history_len " << cfg_.encoder.history_len << '\n';
  os << "player_features " << (cfg_.encoder.player_features ? 1 : 0) << '\n';
  os << "mode_feature " << (cfg_.encoder.mode_feature ? 1 : 0) << '\n';
  os << "train_fraction " << cfg_.train_fraction << '\n';
  os << "min_player_runs " << cfg_.min_player_runs << '\n';
  os << "accuracy " << accuracy_ << '\n';
  os << "corpus " << corpus_.size() << '\n';
  for (const auto& run : corpus_) {
    os << "run " << run.player_id << ' ' << run.script_idx << ' '
       << run.stage_seq.size();
    for (int st : run.stage_seq) os << ' ' << st;
    os << '\n';
  }
  os << "pooled\n";
  ml::write_model(*pooled_, os);
  os << "per_player " << per_player_.size() << '\n';
  for (const auto& [pid, model] : per_player_) {
    os << "player " << pid << '\n';
    ml::write_model(*model, os);
  }
  os << "end-predictor\n";
}

PredictorArtifact StagePredictor::read_artifact(LineReader& r) {
  const std::string magic = r.line(kBundleMagic);
  if (magic != kBundleMagic) {
    if (magic.rfind(kBundleVersionPrefix, 0) == 0) {
      r.fail("unsupported predictor format version '" + magic +
             "' (expected " + kBundleMagic + ")");
    }
    r.fail("bad magic '" + magic + "' (expected " +
           std::string(kBundleMagic) + ")");
  }
  PredictorArtifact art;
  {
    auto ls = r.expect("model ");
    const auto name = r.field<std::string>(ls, "model");
    if (!ml::parse_model_kind(name, art.cfg.model)) {
      r.fail("unknown model kind '" + name + "'");
    }
  }
  {
    auto ls = r.expect("category ");
    const int c = r.field<int>(ls, "category");
    if (c < 0 || c > static_cast<int>(game::GameCategory::kMoba)) {
      r.fail("category out of range");
    }
    art.cfg.category = static_cast<game::GameCategory>(c);
  }
  {
    auto ls = r.expect("history_len ");
    art.cfg.encoder.history_len = r.field<int>(ls, "history_len");
    if (art.cfg.encoder.history_len < 1) r.fail("history_len must be >= 1");
  }
  {
    auto ls = r.expect("player_features ");
    art.cfg.encoder.player_features =
        r.field<int>(ls, "player_features") != 0;
  }
  {
    auto ls = r.expect("mode_feature ");
    art.cfg.encoder.mode_feature = r.field<int>(ls, "mode_feature") != 0;
  }
  {
    auto ls = r.expect("train_fraction ");
    art.cfg.train_fraction = r.field<double>(ls, "train_fraction");
    if (art.cfg.train_fraction <= 0.0 || art.cfg.train_fraction >= 1.0) {
      r.fail("train_fraction must be in (0, 1)");
    }
  }
  {
    auto ls = r.expect("min_player_runs ");
    art.cfg.min_player_runs = r.field<std::size_t>(ls, "min_player_runs");
  }
  {
    auto ls = r.expect("accuracy ");
    art.accuracy = r.field<double>(ls, "accuracy");
    // Eq. 1's S = (1 - P) x M must stay within [0, M].
    if (!(art.accuracy >= 0.0 && art.accuracy <= 1.0)) {
      r.fail("accuracy must be in [0, 1]");
    }
  }
  // Counts size nothing: a count beyond what follows fails at the first
  // missing line or value.
  std::size_t n_runs = 0;
  {
    auto ls = r.expect("corpus ");
    n_runs = r.field<std::size_t>(ls, "corpus");
  }
  for (std::size_t i = 0; i < n_runs; ++i) {
    auto ls = r.expect("run ");
    TrainingRun run;
    run.player_id = r.field<std::uint64_t>(ls, "run player");
    run.script_idx = r.field<std::size_t>(ls, "run script");
    const auto len = r.field<std::size_t>(ls, "run length");
    for (std::size_t s = 0; s < len; ++s) {
      run.stage_seq.push_back(r.field<int>(ls, "run stage"));
    }
    art.corpus.push_back(std::move(run));
  }
  {
    const std::string pooled = r.line("pooled");
    if (pooled != "pooled") {
      r.fail("expected 'pooled', got '" + pooled + "'");
    }
  }
  art.pooled = std::make_shared<const ml::CompiledForest>(ml::read_model(r));
  std::size_t n_players = 0;
  {
    auto ls = r.expect("per_player ");
    n_players = r.field<std::size_t>(ls, "per_player");
  }
  for (std::size_t i = 0; i < n_players; ++i) {
    auto ls = r.expect("player ");
    const auto pid = r.field<std::uint64_t>(ls, "player id");
    art.per_player[pid] =
        std::make_shared<const ml::CompiledForest>(ml::read_model(r));
  }
  {
    const std::string end = r.line("end-predictor");
    if (end != "end-predictor") {
      r.fail("expected 'end-predictor', got '" + end + "'");
    }
  }
  return art;
}

std::unique_ptr<StagePredictor> StagePredictor::load_bundle(
    LineReader& r, const GameProfile* profile) {
  return from_artifact(read_artifact(r), profile);
}

std::unique_ptr<StagePredictor> StagePredictor::load_bundle(
    std::istream& is, const GameProfile* profile) {
  LineReader r(is, "predictor");
  return load_bundle(r, profile);
}

}  // namespace cocg::core
