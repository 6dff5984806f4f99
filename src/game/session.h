// GameSession: the runtime stage machine of one running cloud game.
//
// Driven at a 1-second tick by the platform. Each tick the session states a
// demand; the hardware (via the ContentionModel) states what it supplied;
// the session then advances:
//  * execution stages progress in wall time regardless of supply — players
//    keep playing, they just see a degraded frame rate;
//  * loading stages progress in *work* terms: starving the loading stage
//    stretches it (Observation 4 / the regulator's time-stealing knob).
//
// FPS model: realized = achievable × satisfaction^kFpsExponent, where
// achievable = min(fps_cap, cluster.fps_base). QoS accounting tracks ticks
// with realized FPS below the 30-frame floor (§V-C2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/resources.h"
#include "common/rng.h"
#include "common/types.h"
#include "game/plan.h"
#include "game/spec.h"

namespace cocg::game {

inline constexpr double kFpsExponent = 1.5;
inline constexpr double kQosFpsFloor = 30.0;  ///< §V-C2's 30-frame floor
/// A transient demand spike lasts kSpikeMinTicks..kSpikeMaxTicks ticks.
inline constexpr int kSpikeMinTicks = 3;
inline constexpr int kSpikeMaxTicks = 8;

struct SessionConfig {
  DurationMs tick_ms = 1000;
  /// Per-tick probability of a transient demand fluctuation (the "sudden
  /// event" Fig. 9/10 discuss); the spike lasts kSpikeMinTicks..
  /// kSpikeMaxTicks ticks and multiplies demand by spike_factor.
  double spike_prob = 0.002;
  double spike_factor = 1.35;
};

class GameSession {
 public:
  /// `spec` must outlive the session.
  GameSession(SessionId id, const GameSpec* spec, std::size_t script_idx,
              std::vector<PlannedStage> plan, Rng rng,
              SessionConfig cfg = {});

  SessionId id() const { return id_; }
  const GameSpec& spec() const { return *spec_; }
  std::size_t script_index() const { return script_idx_; }

  /// Start the run at simulated time `now`.
  void begin(TimeMs now);

  bool started() const { return started_; }
  bool finished() const { return finished_; }

  // The per-tick state accessors below are defined inline: the platform
  // reads each of them for every session on every simulated tick.

  /// Demand for the upcoming tick. Requires started() && !finished().
  ResourceVector demand() const {
    COCG_EXPECTS(started_ && !finished_);
    return pending_demand_;
  }

  /// Advance one tick given what the hardware supplied.
  void tick(TimeMs now, const ResourceVector& supplied);

  // --- current state (requires started()) ---
  StageKind stage_kind() const {
    COCG_EXPECTS(started_);
    if (finished_) return StageKind::kLoading;  // post-shutdown
    return spec_->stage_type(plan_[stage_idx_].stage_type).kind;
  }
  int stage_type() const {  ///< -1 once finished
    COCG_EXPECTS(started_);
    if (finished_) return -1;
    return plan_[stage_idx_].stage_type;
  }
  int current_cluster() const {  ///< -1 during/after the final stage end
    COCG_EXPECTS(started_);
    if (finished_) return -1;
    return active_cluster().id;
  }
  std::size_t stage_index() const { return stage_idx_; }
  std::size_t plan_size() const { return plan_.size(); }
  const std::vector<PlannedStage>& plan() const { return plan_; }
  double last_fps() const { return last_fps_; }
  /// Achievable FPS of the current cluster under full supply.
  double achievable_fps() const {
    COCG_EXPECTS(started_ && !finished_);
    const double base = active_cluster().fps_base;
    if (spec_->fps_cap > 0.0) return std::min(base, spec_->fps_cap);
    return base;
  }

  /// Stage types realized so far (completed stages + current).
  const std::vector<int>& stage_history() const { return stage_history_; }

  // --- regulator hooks ---
  /// Freeze loading progress: while held, the loading stage consumes its
  /// demand but makes no progress (the regulator "extends loading time").
  /// No effect during execution stages.
  void set_loading_hold(bool hold) { loading_hold_ = hold; }
  bool loading_hold() const { return loading_hold_; }

  // --- lifetime & QoS accounting ---
  TimeMs start_time() const { return start_time_; }
  TimeMs end_time() const { return end_time_; }  ///< valid when finished()
  DurationMs elapsed_ms() const { return elapsed_ms_; }
  DurationMs execution_ms() const { return execution_ms_; }
  DurationMs loading_ms() const { return loading_ms_; }
  /// Loading time beyond the plan's nominal loading total (stretch).
  DurationMs loading_extension_ms() const;
  /// Execution ticks with realized FPS below the QoS floor.
  DurationMs qos_violation_ms() const { return qos_violation_ms_; }
  /// Mean of realized/achievable FPS over execution ticks (Fig. 13 metric).
  double mean_fps_ratio() const;
  double mean_fps() const;

 private:
  void enter_stage(std::size_t idx);
  const FrameClusterSpec& active_cluster() const {
    const PlannedStage& ps = plan_[stage_idx_];
    const StageTypeSpec& st = spec_->stage_type(ps.stage_type);
    if (st.kind == StageKind::kLoading || ps.cluster_order.size() == 1) {
      return spec_->cluster(ps.cluster_order[0]);
    }
    // Multi-cluster execution stage: each cluster owns an equal slice of
    // the planned dwell, visited in the plan's concrete order.
    const DurationMs share = std::max<DurationMs>(
        1, ps.planned_dwell_ms / static_cast<DurationMs>(
                                     ps.cluster_order.size()));
    auto pos = static_cast<std::size_t>(stage_elapsed_ms_ / share);
    pos = std::min(pos, ps.cluster_order.size() - 1);
    return spec_->cluster(ps.cluster_order[pos]);
  }
  ResourceVector noisy_demand(const FrameClusterSpec& c) const;

  SessionId id_;
  const GameSpec* spec_;
  std::size_t script_idx_;
  std::vector<PlannedStage> plan_;
  mutable Rng rng_;
  SessionConfig cfg_;

  bool started_ = false;
  bool finished_ = false;
  TimeMs start_time_ = 0;
  TimeMs end_time_ = 0;

  std::size_t stage_idx_ = 0;
  DurationMs stage_elapsed_ms_ = 0;   ///< wall time in current stage
  DurationMs loading_progress_ms_ = 0;
  std::vector<int> stage_history_;
  ResourceVector pending_demand_;  ///< demand quoted for the next tick
  bool loading_hold_ = false;

  int spike_ticks_left_ = 0;

  double last_fps_ = 0.0;
  DurationMs elapsed_ms_ = 0;
  DurationMs execution_ms_ = 0;
  DurationMs loading_ms_ = 0;
  DurationMs nominal_loading_ms_ = 0;
  DurationMs qos_violation_ms_ = 0;
  double fps_ratio_sum_ = 0.0;
  double fps_sum_ = 0.0;
  std::size_t fps_samples_ = 0;
};

}  // namespace cocg::game
