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
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/resources.h"
#include "common/rng.h"
#include "common/textio.h"
#include "core/features.h"
#include "core/game_profile.h"
#include "game/spec.h"
#include "ml/compiled.h"
#include "ml/dataset.h"

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

/// Everything a trained predictor is, minus the profile pointer: the
/// immutable compiled models plus config and held-out accuracy P, and the
/// training corpus so replace_model can still retrain. This is the
/// in-memory form of the on-disk predictor bundle and the unit the core
/// ModelBank shares across sessions and fleet shards — the CompiledForest
/// pointers are aliased, never deep-copied.
struct PredictorArtifact {
  PredictorConfig cfg;
  double accuracy = 0.0;
  std::shared_ptr<const ml::CompiledForest> pooled;
  std::map<std::uint64_t, std::shared_ptr<const ml::CompiledForest>>
      per_player;
  std::vector<TrainingRun> corpus;  ///< empty → retraining unavailable
  /// Shared by every predictor made from this artifact. It holds fits of
  /// this corpus, config, stage catalog and game name only: code that
  /// changes one of those on a copy must reset it. Null → from_artifact
  /// starts a new one.
  std::shared_ptr<RefitMemo> refits;
};

class StagePredictor {
 public:
  /// `profile` must outlive the predictor.
  StagePredictor(const GameProfile* profile, PredictorConfig cfg);

  /// Train on realized runs; keeps the corpus so replace_model can retrain.
  /// The split and every fit draw from `rng`; the refit memo is not used.
  void train(const std::vector<TrainingRun>& runs, Rng& rng);

  bool trained() const { return pooled_ != nullptr; }

  /// Bumped by train, every replace_model and rebind_profile, so
  /// a prediction cached at one generation stays valid while it lasts.
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

  /// Held-out accuracy P of the pooled model (Fig. 15; Eq. 1's P).
  double accuracy() const { return accuracy_; }

  /// Online outcome feedback (extension beyond the paper): loading-exit
  /// prediction hits/misses observed in production refine P, so Eq. 1's
  /// redundancy adapts when live behaviour drifts from the training
  /// corpus. Blended as an EMA over outcomes, seeded by the offline P.
  void record_outcome(bool hit);
  double online_accuracy() const;
  std::size_t online_outcomes() const { return online_n_; }

  /// Redundancy S = (1 − P) × M applied to an allocation (Eq. 1).
  ResourceVector redundancy() const;

  ml::ModelKind model_kind() const { return cfg_.model; }

  /// Whether replace_model/evaluate_model can retrain. False when the
  /// predictor was restored from a bundle whose corpus is empty —
  /// callers (e.g. the CoCG scheduler's §IV-B2 fallback) must check this
  /// before asking for a model swap.
  bool can_retrain() const { return !corpus_.empty(); }

  /// Swap to the next algorithm in {DTC, RF, GBDT} (§IV-B2) and adopt
  /// that kind's entry of the refit memo: its held-out accuracy P and its
  /// full-corpus forests. The first request for a kind fits the entry
  /// from an Rng seeded by (game name, kind); every later one, in any
  /// predictor sharing the memo, swaps pointers. The online EMA carries
  /// over. Throws std::runtime_error — without changing the active model —
  /// when !can_retrain().
  void replace_model();

  /// Evaluate a specific model kind on this predictor's corpus without
  /// changing the active model (Fig. 15 sweeps). Throws
  /// std::runtime_error when !can_retrain().
  double evaluate_model(ml::ModelKind kind, Rng& rng) const;

  /// Snapshot the trained state. Compiled models and the refit memo are
  /// shared, not copied; the corpus is copied.
  PredictorArtifact to_artifact() const;

  /// Reconstruct a trained predictor from an artifact. `profile` must
  /// outlive the predictor, exactly as for the training constructor.
  /// Throws std::runtime_error if the artifact is untrained, holds a
  /// forest of another kind than its `cfg.model`, does not match the
  /// profile's stage-type catalog, or has a corpus that yields no training
  /// pair.
  static std::unique_ptr<StagePredictor> from_artifact(
      const PredictorArtifact& artifact, const GameProfile* profile);

  /// Serialize the trained state as a self-delimiting text block
  /// (versioned, human-diffable, embeddable inside larger bundles).
  void save_bundle(std::ostream& os) const;

  /// Restore from save_bundle output. Throws std::runtime_error with a
  /// line/field diagnostic on truncated, corrupt, or version-skewed input.
  static std::unique_ptr<StagePredictor> load_bundle(
      std::istream& is, const GameProfile* profile);
  /// Embedded form: consumes one predictor block from an outer artifact's
  /// reader (used by core/model_bank).
  static std::unique_ptr<StagePredictor> load_bundle(
      LineReader& r, const GameProfile* profile);
  /// Parse just the artifact, without binding it to a profile.
  static PredictorArtifact read_artifact(LineReader& r);

  const FeatureEncoder& encoder() const { return encoder_; }

  /// Re-point the predictor at a migrated profile (§IV-D): the catalog
  /// (stage-type ids and count) must be identical — only the resource
  /// amounts may differ. Used when a trained bundle moves to another SKU.
  /// The predictor takes a fresh refit memo.
  void rebind_profile(const GameProfile* profile);

 private:
  /// Strip loading stages: prediction operates on execution stages.
  std::vector<int> exec_only(const std::vector<int>& seq) const;
  ml::Dataset build_dataset(const std::vector<TrainingRun>& runs) const;
  /// `kind`'s 75/25 held-out accuracy and full-corpus pooled and
  /// per-player fits, in that order, all drawing from `rng`.
  RefitMemo::Entry fit_kind(ml::ModelKind kind, Rng& rng) const;
  void adopt(RefitMemo::Entry entry);

  const GameProfile* profile_;
  PredictorConfig cfg_;
  FeatureEncoder encoder_;
  std::vector<TrainingRun> corpus_;
  std::shared_ptr<RefitMemo> refits_;

  std::shared_ptr<const ml::CompiledForest> pooled_;
  std::map<std::uint64_t, std::shared_ptr<const ml::CompiledForest>>
      per_player_;
  double accuracy_ = 0.0;
  std::uint64_t generation_ = 0;
  double online_acc_ = 0.0;
  std::size_t online_n_ = 0;
};

}  // namespace cocg::core
