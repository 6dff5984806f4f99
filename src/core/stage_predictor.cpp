#include "core/stage_predictor.h"

#include <stdexcept>
#include <string>

#include "common/check.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "obs/obs.h"

namespace cocg::core {

namespace {

FeatureEncoder encoder_for(const GameBundle& b) {
  return FeatureEncoder(b.cfg.encoder, b.profile->num_stage_types());
}

/// `b`, checked to be a trained bundle a predictor can run over.
const GameBundle& complete(const std::shared_ptr<const GameBundle>& b) {
  COCG_EXPECTS_MSG(b != nullptr && b->profile != nullptr &&
                       b->corpus != nullptr && b->refits != nullptr &&
                       b->trained.pooled != nullptr,
                   "a predictor needs a complete trained bundle");
  return *b;
}

/// Strip loading stages: prediction operates on execution stages.
std::vector<int> exec_only(const GameProfile& profile,
                           const std::vector<int>& seq) {
  std::vector<int> out;
  out.reserve(seq.size());
  for (int st : seq) {
    if (st >= 0 && st < profile.num_stage_types() &&
        !profile.stage_type(st).loading) {
      out.push_back(st);
    }
  }
  return out;
}

ml::Dataset build_dataset(const GameProfile& profile,
                          const FeatureEncoder& encoder,
                          const std::vector<TrainingRun>& runs) {
  ml::Dataset data(encoder.feature_names());
  for (const auto& run : runs) {
    const auto exec = exec_only(profile, run.stage_seq);
    // Pairs (history prefix → next stage); the empty-history pair teaches
    // the opening stage.
    for (std::size_t i = 0; i + 1 <= exec.size(); ++i) {
      std::vector<int> hist(exec.begin(),
                            exec.begin() + static_cast<std::ptrdiff_t>(i));
      data.add(encoder.encode(hist, run.player_id, run.script_idx),
               exec[i]);
    }
  }
  return data;
}

double accuracy_on(const ml::CompiledForest& model, const ml::Dataset& test) {
  std::vector<int> pred;
  pred.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    pred.push_back(model.predict(test.x(i)));
  }
  return ml::accuracy(test.labels(), pred);
}

/// `kind`'s 75/25 held-out accuracy and full-corpus pooled and per-player
/// fits on `b`'s corpus, in that order, all drawing from `rng`.
RefitMemo::Entry fit_kind(const GameBundle& b, ml::ModelKind kind,
                          Rng& rng) {
  const GameProfile& profile = *b.profile;
  const FeatureEncoder encoder = encoder_for(b);
  const ml::Dataset all = build_dataset(profile, encoder, *b.corpus);
  COCG_CHECK_MSG(!all.empty(), "corpus produced no training pairs");
  RefitMemo::Entry entry;

  // Pooled model with held-out accuracy (the paper's 75/25 split).
  auto [train, test] = all.split(b.cfg.train_fraction, rng);
  if (train.empty() || test.empty()) {
    train = all;
    test = all;
  }
  entry.accuracy = accuracy_on(*ml::fit_model(kind, train, rng), test);

  // Refit on everything for online use.
  entry.pooled = ml::fit_model(kind, all, rng);
  // Mobile quadrant: personal models for players with enough history
  // (§IV-B1 "finely establish a training set for each individual player").
  if (b.cfg.category == game::GameCategory::kMobile) {
    std::map<std::uint64_t, std::vector<TrainingRun>> by_player;
    for (const auto& run : *b.corpus) by_player[run.player_id].push_back(run);
    for (const auto& [pid, runs] : by_player) {
      if (runs.size() < b.cfg.min_player_runs) continue;
      const ml::Dataset pd = build_dataset(profile, encoder, runs);
      if (pd.empty()) continue;
      entry.per_player[pid] = ml::fit_model(kind, pd, rng);
    }
  }
  return entry;
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

GameBundle train_predictor(std::shared_ptr<const GameProfile> profile,
                           const PredictorConfig& cfg,
                           std::vector<TrainingRun> corpus, Rng& rng) {
  COCG_EXPECTS(profile != nullptr);
  COCG_EXPECTS(cfg.train_fraction > 0.0 && cfg.train_fraction < 1.0);
  COCG_EXPECTS_MSG(!corpus.empty(), "training needs at least one run");
  GameBundle b;
  b.profile = std::move(profile);
  b.cfg = cfg;
  b.corpus =
      std::make_shared<const std::vector<TrainingRun>>(std::move(corpus));
  b.refits = std::make_shared<RefitMemo>();
  b.trained = fit_kind(b, cfg.model, rng);
  return b;
}

StagePredictor::StagePredictor(std::shared_ptr<const GameBundle> bundle)
    : bundle_(std::move(bundle)),
      encoder_(encoder_for(complete(bundle_))),
      kind_(bundle_->cfg.model),
      active_(bundle_->trained) {}

StagePredictor::StagePredictor(std::shared_ptr<const GameBundle> bundle,
                               const StagePredictor& lineage)
    : StagePredictor(std::move(bundle)) {
  COCG_EXPECTS_MSG(
      profile().num_stage_types() == lineage.profile().num_stage_types(),
      "a lineage moves only to an identical stage-type catalog");
  kind_ = lineage.kind_;
  active_ = lineage.active_;
  generation_ = lineage.generation_ + 1;
  online_acc_ = lineage.online_acc_;
  online_n_ = lineage.online_n_;
}

int StagePredictor::predict_next(const std::vector<int>& exec_history,
                                 std::uint64_t player_id,
                                 std::size_t mode) const {
  const auto row = encoder_.encode(exec_history, player_id, mode);
  auto it = active_.per_player.find(player_id);
  if (it != active_.per_player.end()) return it->second->predict(row);
  return active_.pooled->predict(row);
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
  if (online_n_ == 0) online_acc_ = accuracy();
  online_acc_ = kAlpha * (hit ? 1.0 : 0.0) + (1.0 - kAlpha) * online_acc_;
  ++online_n_;
}

double StagePredictor::online_accuracy() const {
  return online_n_ == 0 ? accuracy() : online_acc_;
}

ResourceVector StagePredictor::redundancy() const {
  // S = (1 − P) × M — Eq. 1, with M the game's peak consumption. P is the
  // offline held-out accuracy refined by live outcomes once any exist.
  return (1.0 - online_accuracy()) * profile().peak_demand;
}

void StagePredictor::replace_model() {
  // Guard *before* rotating the kind: a failed swap must leave the active
  // model and kind_ consistent.
  if (!can_retrain()) {
    throw std::runtime_error(
        "replace_model: predictor was restored from a bundle without its "
        "training corpus, nothing to retrain on");
  }
  switch (kind_) {
    case ml::ModelKind::kDtc: kind_ = ml::ModelKind::kRf; break;
    case ml::ModelKind::kRf: kind_ = ml::ModelKind::kGbdt; break;
    case ml::ModelKind::kGbdt: kind_ = ml::ModelKind::kDtc; break;
  }
  bool hit = false;
  active_ = bundle_->refits->get(
      kind_,
      [&] {
        Rng rng(rotation_seed(bundle_->game_name(), kind_));
        return fit_kind(*bundle_, kind_, rng);
      },
      hit);
  ++generation_;
  obs::metrics()
      .counter(hit ? "predictor.refit_memo.hits"
                   : "predictor.refit_memo.misses")
      .add();
}

double StagePredictor::evaluate_model(ml::ModelKind kind, Rng& rng) const {
  if (!can_retrain()) {
    throw std::runtime_error(
        "evaluate_model: predictor was restored without its training "
        "corpus, nothing to evaluate on");
  }
  const ml::Dataset all =
      build_dataset(profile(), encoder_, *bundle_->corpus);
  auto [train, test] = all.split(bundle_->cfg.train_fraction, rng);
  if (train.empty() || test.empty()) return 1.0;
  return accuracy_on(*ml::fit_model(kind, train, rng), test);
}

}  // namespace cocg::core
