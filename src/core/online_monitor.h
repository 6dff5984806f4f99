// Per-session online monitor: the 4-step 5-second loop of Fig. 8
// (collect → judge stage → predict next stage → adjust resources), plus the
// §IV-B2 dynamic-adjustment safeguards:
//  * rehearsal callback — on a mismatch, either re-match to the correct
//    stage (confirmed on the next detection) or, when a loading judgement
//    was a transient dip, jump back to the previous execution stage;
//  * redundancy allocation — recommendations carry S = (1 − P) × M.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/resources.h"
#include "common/types.h"
#include "core/game_profile.h"
#include "core/stage_predictor.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace cocg::core {

enum class MonitorEvent {
  kSameStage,          ///< observation matches the judged stage
  kEnteredLoading,     ///< execution → loading transition detected
  kEnteredExecution,   ///< loading → execution transition detected
  kStageRefined,       ///< window evidence upgraded to a multi-cluster type
  kPendingJump,        ///< mismatch observed; awaiting confirmation
  kRehearsalCallback,  ///< mis-judgement corrected (stage jump or jump-back)
};

const char* monitor_event_name(MonitorEvent e);

/// Margin applied to loading-stage demand recommendations.
inline constexpr double kLoadingMargin = 1.10;

struct MonitorConfig {
  /// Scale on Eq. 1's redundancy S (ablation knob; 1.0 = the paper).
  double redundancy_scale = 1.0;
};

class OnlineMonitor {
 public:
  /// Judges stages against the predictor's profile. `predictor` must
  /// outlive the monitor.
  OnlineMonitor(const StagePredictor* predictor, std::uint64_t player_id,
                std::size_t mode, MonitorConfig cfg = {});

  /// Feed one 5-second observation (mean usage over the detection window).
  /// When `view_saturated`, observations are supply-squeezed, so jumps to
  /// lower-demand execution stages are suppressed — a starved game looks
  /// exactly like a calmer one (§IV-B2's misjudgement risk).
  MonitorEvent observe(TimeMs t, const ResourceVector& usage,
                       bool view_saturated = false);

  /// Tag obs records with the platform session id (0 when standalone).
  void set_session_id(std::uint64_t sid) { session_id_ = sid; }

  // --- judged state ---
  bool in_loading() const;
  int current_stage() const { return current_stage_; }  ///< -1 before first obs
  const std::vector<int>& exec_history() const { return exec_history_; }
  /// Bumped by every write to the judged stage or the execution history,
  /// so a value derived from both stays valid while the version does.
  std::uint64_t version() const { return version_; }
  /// Valid while in loading: the predicted next execution stage.
  int predicted_next() const { return predicted_next_; }
  /// Time spent in the currently judged stage.
  DurationMs stage_elapsed_ms(TimeMs now) const;

  // --- resource recommendation (Fig. 8 step 4) ---
  /// Allocation for right now: execution → stage peak + S; loading →
  /// max(loading demand × margin, predicted-next peak + S) so the next
  /// stage is provisioned before it begins (§IV-B).
  ResourceVector recommended_allocation() const;

  /// Forward-looking per-stage peak demands: current stage then the
  /// predicted next `n` execution stages (Algorithm 1's scan).
  std::vector<ResourceVector> predicted_peaks(int n) const;

  // --- error accounting (replacing-model trigger) ---
  int prediction_hits() const { return hits_; }
  int prediction_misses() const { return misses_; }
  int callbacks() const { return callbacks_; }
  int consecutive_errors() const { return consecutive_errors_; }
  void reset_error_streak() { consecutive_errors_ = 0; }

 private:
  MonitorEvent observe_impl(TimeMs t, const ResourceVector& usage,
                            bool view_saturated);
  int match_execution_stage(int cluster) const;
  // The only writers of current_stage_ and exec_history_; each bumps
  // version_.
  void enter_stage(int stage, TimeMs t);
  void append_history(int stage);
  /// Relabel the last history entry (no-op on an empty history).
  void relabel_last(int stage);
  /// Best stage type for the clusters observed during the current
  /// execution stage (frequency-filtered signature match; falls back to
  /// the most specific type containing the majority cluster).
  int resolve_stage_from_window() const;
  /// Finish the current execution stage: upgrade the history entry to the
  /// window-resolved type and score the pending prediction.
  void finalize_execution_stage(TimeMs t);

  const StagePredictor* predictor_;
  const GameProfile* profile_;  ///< the predictor's, fixed for its lifetime
  std::uint64_t player_id_;
  std::size_t mode_;
  MonitorConfig cfg_;

  int current_stage_ = -1;
  int previous_stage_ = -1;      ///< execution stage before current loading
  TimeMs stage_entered_ = 0;
  TimeMs loading_entered_ = 0;
  bool first_loading_detection_ = false;  ///< just one loading observation?
  std::vector<int> exec_history_;
  std::uint64_t version_ = 0;
  int predicted_next_ = -1;
  /// Prediction awaiting scoring: set when an execution stage begins,
  /// resolved against the window-judged stage when it ends (§IV-A's
  /// multi-cluster stages only reveal their full signature over time).
  int pending_prediction_ = -1;
  /// Observation counts per cluster within the current execution stage.
  std::map<int, int> window_clusters_;

  int pending_jump_stage_ = -1;

  int hits_ = 0;
  int misses_ = 0;
  int callbacks_ = 0;
  int consecutive_errors_ = 0;

  std::uint64_t session_id_ = 0;
  // Per-game counters (handle reuse: every monitor of one game shares the
  // same cells, so the registry aggregates across sessions).
  obs::Counter obs_hits_;
  obs::Counter obs_misses_;
  obs::Counter obs_callbacks_;
};

}  // namespace cocg::core
