#include "game/session.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cocg::game {

GameSession::GameSession(SessionId id, const GameSpec* spec,
                         std::size_t script_idx,
                         std::vector<PlannedStage> plan, Rng rng,
                         SessionConfig cfg)
    : id_(id),
      spec_(spec),
      script_idx_(script_idx),
      plan_(std::move(plan)),
      rng_(rng),
      cfg_(cfg) {
  COCG_EXPECTS(spec != nullptr);
  COCG_EXPECTS(script_idx < spec->scripts.size());
  COCG_EXPECTS_MSG(!plan_.empty(), "plan must contain at least one stage");
  COCG_EXPECTS(cfg_.tick_ms > 0);
  for (const auto& ps : plan_) {
    COCG_EXPECTS(ps.stage_type >= 0 &&
                 ps.stage_type < spec->num_stage_types());
    COCG_EXPECTS(!ps.cluster_order.empty());
    if (spec->stage_type(ps.stage_type).kind == StageKind::kLoading) {
      // Tick-quantized nominal: a fully-supplied loading stage completes on
      // the ceil(dwell/tick)-th tick, which must not count as "extension".
      const DurationMs ticks =
          (ps.planned_dwell_ms + cfg_.tick_ms - 1) / cfg_.tick_ms;
      nominal_loading_ms_ += ticks * cfg_.tick_ms;
    }
  }
}

void GameSession::begin(TimeMs now) {
  COCG_EXPECTS_MSG(!started_, "session already started");
  started_ = true;
  start_time_ = now;
  enter_stage(0);
}

void GameSession::enter_stage(std::size_t idx) {
  COCG_CHECK(idx < plan_.size());
  stage_idx_ = idx;
  stage_elapsed_ms_ = 0;
  loading_progress_ms_ = 0;
  stage_history_.push_back(plan_[idx].stage_type);
  pending_demand_ = noisy_demand(active_cluster());
}

ResourceVector GameSession::noisy_demand(const FrameClusterSpec& c) const {
  ResourceVector d = c.centroid;
  // One normal per dimension, in dimension order. Jitter-free clusters
  // draw nothing: the centroid needs no perturbing, and skipping the draws
  // is part of the session's RNG stream.
  if (!c.jitter.is_zero()) {
    for (std::size_t i = 0; i < kNumDims; ++i) {
      d.at(i) = std::max(0.0, d.at(i) + rng_.normal(0.0, c.jitter.at(i)));
    }
  }
  if (spike_ticks_left_ > 0) d *= cfg_.spike_factor;
  return d;
}

void GameSession::tick(TimeMs now, const ResourceVector& supplied) {
  COCG_EXPECTS(started_ && !finished_);
  const DurationMs dt = cfg_.tick_ms;
  const PlannedStage& ps = plan_[stage_idx_];
  const StageTypeSpec& st = spec_->stage_type(ps.stage_type);

  const double sat =
      std::clamp(pending_demand_.satisfaction_ratio(supplied), 0.0, 1.0);

  elapsed_ms_ += dt;
  stage_elapsed_ms_ += dt;

  bool advance = false;
  if (st.kind == StageKind::kLoading) {
    loading_ms_ += dt;
    last_fps_ = 0.0;  // black screen while loading
    if (!loading_hold_) {
      // Loading is CPU/IO-bound: progress rate follows the CPU dimension.
      const double cpu_need = pending_demand_[Dim::kCpuPct];
      const double cpu_got = supplied[Dim::kCpuPct];
      const double rate =
          cpu_need <= 0.0 ? 1.0 : std::clamp(cpu_got / cpu_need, 0.0, 1.0);
      loading_progress_ms_ += static_cast<DurationMs>(
          rate * static_cast<double>(dt));
      if (loading_progress_ms_ >= ps.planned_dwell_ms) advance = true;
    }
  } else {
    execution_ms_ += dt;
    const double achievable = achievable_fps();
    // pow(1, y) is exactly 1, and every uncontended tick is fully supplied.
    const double realized =
        sat == 1.0 ? achievable
                   : achievable * std::pow(sat, kFpsExponent);
    last_fps_ = realized;
    fps_sum_ += realized;
    fps_ratio_sum_ += achievable > 0.0 ? realized / achievable : 1.0;
    ++fps_samples_;
    if (realized < kQosFpsFloor) qos_violation_ms_ += dt;
    // Execution advances in wall time: user influence fixed the dwell.
    if (stage_elapsed_ms_ >= ps.planned_dwell_ms) advance = true;

    // Transient demand fluctuation bookkeeping.
    if (spike_ticks_left_ > 0) {
      --spike_ticks_left_;
    } else if (cfg_.spike_prob > 0.0 && rng_.chance(cfg_.spike_prob)) {
      // The guard is not just an optimization: chance() consumes a draw even
      // at p=0, so dropping it would shift the RNG stream of spike-free
      // configs.
      spike_ticks_left_ = static_cast<int>(
          rng_.uniform_int(kSpikeMinTicks, kSpikeMaxTicks));
    }
  }

  if (advance) {
    if (stage_idx_ + 1 >= plan_.size()) {
      finished_ = true;
      end_time_ = now + dt;
      return;
    }
    enter_stage(stage_idx_ + 1);
  } else {
    pending_demand_ = noisy_demand(active_cluster());
  }
}

DurationMs GameSession::loading_extension_ms() const {
  return std::max<DurationMs>(0, loading_ms_ - nominal_loading_ms_);
}

double GameSession::mean_fps_ratio() const {
  if (fps_samples_ == 0) return 1.0;
  return fps_ratio_sum_ / static_cast<double>(fps_samples_);
}

double GameSession::mean_fps() const {
  if (fps_samples_ == 0) return 0.0;
  return fps_sum_ / static_cast<double>(fps_samples_);
}

}  // namespace cocg::game
