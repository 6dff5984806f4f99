// ML-based stage predictor (§IV-B).
//
// Offline: builds (history → next execution stage) training pairs from
// profiled stage sequences, selecting samples per the Fig. 7 game-category
// quadrant (web: pool everything; mobile: per-player datasets; console:
// whole-process pooling; MMORPG/MOBA: cohort pooling with player features).
// Trains one of DTC / RF / GBDT; held-out accuracy P feeds the redundancy
// rule S = (1 − P) × M (Eq. 1).
//
// Online: predict_next() returns the execution stage expected after the
// current loading stage; replace_model() hot-swaps the algorithm when
// errors persist (the "replacing model" fallback, §IV-B2).
//
// A trained game is one immutable GameBundle shared by pointer; each
// StagePredictor is one holder's lineage over it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/resources.h"
#include "common/rng.h"
#include "core/features.h"
#include "core/game_profile.h"
#include "game/spec.h"
#include "ml/compiled.h"

namespace cocg::core {

struct PredictorConfig {
  ml::ModelKind model = ml::ModelKind::kDtc;
  EncoderConfig encoder;
  double train_fraction = 0.75;  ///< §V-D2: 75/25 split
  game::GameCategory category = game::GameCategory::kWeb;
  /// Minimum runs a player needs for a personal model (mobile quadrant);
  /// thinner players fall back to the pooled model.
  std::size_t min_player_runs = 3;
};

/// One realized run used for training.
struct TrainingRun {
  std::vector<int> stage_seq;  ///< catalog stage types, loading included
  std::uint64_t player_id = 0;
  std::size_t script_idx = 0;  ///< launched mode (Table I script)
};

/// The rotation fits of one predictor lineage, one entry per model kind.
/// An entry is everything a replacement adopts: the kind's held-out
/// accuracy P and its full-corpus pooled and per-player forests. Each is
/// made by one seeded fit whose seed is a pure function of (game, kind)
/// (StagePredictor::replace_model), so it depends only on (corpus, config,
/// stage catalog, game, kind): every predictor with those may share it,
/// and whichever caller fills an entry first cannot change a bit.
/// Thread-safe; each kind is fitted at most once.
class RefitMemo {
 public:
  struct Entry {
    double accuracy = 0.0;  ///< the kind's own held-out accuracy P
    std::shared_ptr<const ml::CompiledForest> pooled;
    std::map<std::uint64_t, std::shared_ptr<const ml::CompiledForest>>
        per_player;
  };

  /// `kind`'s entry, made by `fit()` on the first request (other callers
  /// for the same kind wait for it). `hit` says whether it was already
  /// there.
  template <typename Fit>
  Entry get(ml::ModelKind kind, Fit&& fit, bool& hit) {
    Slot& slot = slots_[static_cast<std::size_t>(kind)];
    std::lock_guard lock(slot.mu);
    hit = slot.filled;
    if (!slot.filled) {
      slot.entry = fit();
      slot.filled = true;
    }
    return slot.entry;
  }

 private:
  struct Slot {
    std::mutex mu;
    bool filled = false;  ///< guarded by mu
    Entry entry;          ///< guarded by mu
  };
  std::array<Slot, 3> slots_;  ///< indexed by ml::ModelKind
};

/// One game's trained artifact, the only form a trained game takes: its
/// profile, its stage predictor's config, corpus and fitted model, and the
/// profiling summary the schedulers read. Immutable once train_game or
/// read_bundle has built it, and shared by pointer: the offline pipeline,
/// the ModelBank and every predictor instantiated from it hold this one
/// object, so none of it is ever copied. Migration (§IV-D) makes another
/// around a rescaled profile, sharing everything else.
struct GameBundle {
  std::shared_ptr<const GameProfile> profile;
  PredictorConfig cfg;  ///< cfg.model is the trained kind
  RefitMemo::Entry trained;  ///< cfg.model's held-out P and forests
  /// Never null; empty → retraining unavailable.
  std::shared_ptr<const std::vector<TrainingRun>> corpus;
  /// Never null. It holds fits of this corpus, config, stage catalog and
  /// game name only: a bundle that changes one of those takes a new one.
  std::shared_ptr<RefitMemo> refits;
  std::vector<double> sse_by_k;  ///< Fig. 14 curve from profiling
  int chosen_k = 0;
  DurationMs mean_run_duration_ms = 0;  ///< over profiling runs

  const std::string& game_name() const { return profile->game_name; }
};

/// Train a stage predictor for `profile` on `corpus`: cfg.model's held-out
/// accuracy P (the cfg.train_fraction split) and full-corpus forests, every
/// fit drawing from `rng`, with a fresh refit memo. The profiling summary
/// is left for the caller to fill.
GameBundle train_predictor(std::shared_ptr<const GameProfile> profile,
                           const PredictorConfig& cfg,
                           std::vector<TrainingRun> corpus, Rng& rng);

/// One lineage of a game's stage predictor: the shared bundle plus the
/// state that belongs to its holder alone — the active model (kind, P and
/// forests, rotated by replace_model) and the online accuracy EMA.
class StagePredictor {
 public:
  /// A lineage over `bundle`, starting at its trained model.
  explicit StagePredictor(std::shared_ptr<const GameBundle> bundle);

  /// `lineage` continued over `bundle`, which must have the same
  /// stage-type catalog (a migrated bundle, §IV-D): the active model and
  /// the online accuracy carry over, and the generation moves.
  StagePredictor(std::shared_ptr<const GameBundle> bundle,
                 const StagePredictor& lineage);

  const std::shared_ptr<const GameBundle>& bundle() const { return bundle_; }
  const GameProfile& profile() const { return *bundle_->profile; }

  /// Bumped by every replace_model and by continuing a lineage, so a
  /// prediction cached at one generation stays valid while it lasts.
  std::uint64_t generation() const { return generation_; }

  /// Predict the next execution stage type given the execution-stage
  /// history of a running session.
  int predict_next(const std::vector<int>& exec_history,
                   std::uint64_t player_id, std::size_t mode) const;

  /// Iterated prediction of the next `n` execution stages (Algorithm 1's
  /// forward scan).
  std::vector<int> predict_sequence(const std::vector<int>& exec_history,
                                    std::uint64_t player_id, std::size_t mode,
                                    int n) const;

  /// Held-out accuracy P of the active pooled model (Fig. 15; Eq. 1's P).
  double accuracy() const { return active_.accuracy; }

  /// Online outcome feedback (extension beyond the paper): loading-exit
  /// prediction hits/misses observed in production refine P, so Eq. 1's
  /// redundancy adapts when live behaviour drifts from the training
  /// corpus. Blended as an EMA over outcomes, seeded by the offline P.
  void record_outcome(bool hit);
  double online_accuracy() const;
  std::size_t online_outcomes() const { return online_n_; }

  /// Redundancy S = (1 − P) × M applied to an allocation (Eq. 1).
  ResourceVector redundancy() const;

  ml::ModelKind model_kind() const { return kind_; }
  /// The active model: model_kind()'s P and forests.
  const RefitMemo::Entry& active() const { return active_; }

  /// Whether replace_model/evaluate_model can retrain. False when the
  /// bundle was loaded without its corpus — callers (e.g. the CoCG
  /// scheduler's §IV-B2 fallback) must check this before asking for a
  /// model swap.
  bool can_retrain() const { return !bundle_->corpus->empty(); }

  /// Swap to the next algorithm in {DTC, RF, GBDT} (§IV-B2) and adopt
  /// that kind's entry of the bundle's refit memo: its held-out accuracy P
  /// and its full-corpus forests. The first request for a kind fits the
  /// entry from an Rng seeded by (game name, kind); every later one, in
  /// any predictor over the bundle, swaps pointers. The online EMA carries
  /// over. Throws std::runtime_error — without changing the active model —
  /// when !can_retrain().
  void replace_model();

  /// Evaluate a specific model kind on the bundle's corpus without
  /// changing the active model (Fig. 15 sweeps). Throws
  /// std::runtime_error when !can_retrain().
  double evaluate_model(ml::ModelKind kind, Rng& rng) const;

  const FeatureEncoder& encoder() const { return encoder_; }

 private:
  std::shared_ptr<const GameBundle> bundle_;
  FeatureEncoder encoder_;
  ml::ModelKind kind_;
  RefitMemo::Entry active_;
  std::uint64_t generation_ = 0;
  double online_acc_ = 0.0;
  std::size_t online_n_ = 0;
};

}  // namespace cocg::core
