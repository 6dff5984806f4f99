#include "core/online_monitor.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.h"

namespace cocg::core {

const char* monitor_event_name(MonitorEvent e) {
  switch (e) {
    case MonitorEvent::kSameStage: return "same-stage";
    case MonitorEvent::kEnteredLoading: return "entered-loading";
    case MonitorEvent::kEnteredExecution: return "entered-execution";
    case MonitorEvent::kStageRefined: return "stage-refined";
    case MonitorEvent::kPendingJump: return "pending-jump";
    case MonitorEvent::kRehearsalCallback: return "rehearsal-callback";
  }
  return "?";
}

OnlineMonitor::OnlineMonitor(const StagePredictor* predictor,
                             std::uint64_t player_id, std::size_t mode,
                             MonitorConfig cfg)
    : predictor_(predictor), player_id_(player_id), mode_(mode), cfg_(cfg) {
  COCG_EXPECTS(predictor != nullptr);
  profile_ = &predictor->profile();
  auto& reg = obs::metrics();
  obs_hits_ = reg.counter("predictor.hits." + profile_->game_name);
  obs_misses_ = reg.counter("predictor.misses." + profile_->game_name);
  obs_callbacks_ =
      reg.counter("monitor.rehearsal_callbacks." + profile_->game_name);
}

bool OnlineMonitor::in_loading() const {
  return current_stage_ >= 0 &&
         profile_->stage_type(current_stage_).loading;
}

int OnlineMonitor::match_execution_stage(int cluster) const {
  return profile_->match_execution_stage_for_cluster(cluster);
}

void OnlineMonitor::enter_stage(int stage, TimeMs t) {
  current_stage_ = stage;
  stage_entered_ = t;
  pending_jump_stage_ = -1;
  ++version_;
}

void OnlineMonitor::append_history(int stage) {
  exec_history_.push_back(stage);
  ++version_;
}

void OnlineMonitor::relabel_last(int stage) {
  if (exec_history_.empty()) return;
  exec_history_.back() = stage;
  ++version_;
}

int OnlineMonitor::resolve_stage_from_window() const {
  if (window_clusters_.empty()) return -1;
  int total = 0, majority_cluster = -1, majority_count = -1;
  for (const auto& [c, n] : window_clusters_) {
    total += n;
    if (n > majority_count) {
      majority_count = n;
      majority_cluster = c;
    }
  }
  // Frequency-filtered signature (mirrors the profiler's hygiene): only
  // clusters covering a meaningful share of the stage count.
  std::set<int> sig;
  for (const auto& [c, n] : window_clusters_) {
    if (5 * n >= total) sig.insert(c);  // >= 20%
  }
  if (sig.empty()) sig.insert(majority_cluster);
  const std::vector<int> sorted(sig.begin(), sig.end());
  const int exact = profile_->match_stage_signature(sorted);
  if (exact >= 0 && !profile_->stage_type(exact).loading) return exact;
  return match_execution_stage(majority_cluster);
}

void OnlineMonitor::finalize_execution_stage(TimeMs t) {
  const int resolved = resolve_stage_from_window();
  if (resolved >= 0) {
    relabel_last(resolved);
    previous_stage_ = resolved;
  }
  if (pending_prediction_ >= 0 && resolved >= 0) {
    const bool hit = resolved == pending_prediction_;
    if (hit) {
      ++hits_;
      consecutive_errors_ = 0;
      obs_hits_.add();
    } else {
      ++misses_;
      ++consecutive_errors_;
      obs_misses_.add();
    }
    obs::events().record(
        t, obs::PredictionOutcome{
               session_id_, profile_->game_name, pending_prediction_,
               resolved, hit,
               ml::model_kind_name(predictor_->model_kind()),
               predictor_->redundancy().gpu()});
  }
  pending_prediction_ = -1;
}

MonitorEvent OnlineMonitor::observe(TimeMs t, const ResourceVector& usage,
                                    bool view_saturated) {
  const MonitorEvent ev = observe_impl(t, usage, view_saturated);
  if (ev == MonitorEvent::kRehearsalCallback) obs_callbacks_.add();
  // Judgement changes are logged; steady-state kSameStage is not (it is
  // the overwhelmingly common observation and carries no decision).
  if (ev != MonitorEvent::kSameStage) {
    obs::events().record(
        t, obs::MonitorRecord{session_id_, profile_->game_name,
                              monitor_event_name(ev), current_stage_});
  }
  return ev;
}

MonitorEvent OnlineMonitor::observe_impl(TimeMs t, const ResourceVector& usage,
                                         bool view_saturated) {
  const int cluster = profile_->match_cluster(usage);
  const bool obs_loading =
      profile_->cluster(cluster).loading &&
      profile_->loading_stage_type >= 0;

  // First observation: initialize the judged stage directly.
  if (current_stage_ < 0) {
    if (obs_loading) {
      enter_stage(profile_->loading_stage_type, t);
      loading_entered_ = t;
      first_loading_detection_ = true;
      predicted_next_ =
          predictor_->predict_next(exec_history_, player_id_, mode_);
      return MonitorEvent::kEnteredLoading;
    }
    const int st = match_execution_stage(cluster);
    enter_stage(st >= 0 ? st : 0, t);
    append_history(current_stage_);
    window_clusters_.clear();
    window_clusters_[cluster] = 1;
    pending_prediction_ = -1;  // nothing was predicted for this stage
    return MonitorEvent::kEnteredExecution;
  }

  const bool cur_loading = in_loading();

  if (cur_loading) {
    if (obs_loading) {
      if (first_loading_detection_) {
        // Second consecutive loading detection: the previous execution
        // stage has truly ended — resolve and score it, then refresh the
        // next-stage prediction from the finalized history.
        finalize_execution_stage(t);
        window_clusters_.clear();
        predicted_next_ =
            predictor_->predict_next(exec_history_, player_id_, mode_);
        first_loading_detection_ = false;
      }
      return MonitorEvent::kSameStage;
    }
    // Loading ended (or never truly began).
    const int matched = match_execution_stage(cluster);

    // §IV-B2 callback case 2: the "loading" judgement was a transient dip —
    // only one detection old and the game is back in the stage it was in
    // (any cluster of the previous stage's signature counts: a multi-
    // cluster stage resumes on whichever of its clusters shows first).
    // The interrupted stage resumes: its window and pending prediction are
    // still intact.
    const bool resumes_previous = [&] {
      if (previous_stage_ < 0) return false;
      const auto& sig = profile_->stage_type(previous_stage_).clusters;
      return std::find(sig.begin(), sig.end(), cluster) != sig.end();
    }();
    // Loading-stage exit misjudgement guard: a loading judgement reverts
    // if the very next detection matches the previous execution stage.
    if (first_loading_detection_ && resumes_previous &&
        !window_clusters_.empty()) {
      ++callbacks_;
      ++consecutive_errors_;
      enter_stage(previous_stage_, t);
      window_clusters_[cluster] += 1;
      return MonitorEvent::kRehearsalCallback;
    }

    // Genuine transition into a new execution stage. If the loading was a
    // single detection, the previous stage was never finalized: do it now.
    if (first_loading_detection_) {
      finalize_execution_stage(t);
      predicted_next_ =
          predictor_->predict_next(exec_history_, player_id_, mode_);
    }
    int next = matched;
    if (next < 0) next = predicted_next_ >= 0 ? predicted_next_ : 0;
    append_history(next);
    enter_stage(next, t);
    window_clusters_.clear();
    window_clusters_[cluster] = 1;
    pending_prediction_ = predicted_next_;
    predicted_next_ = -1;
    return MonitorEvent::kEnteredExecution;
  }

  // Currently in an execution stage.
  const auto& st = profile_->stage_type(current_stage_);

  if (obs_loading) {
    // Execution → loading transition (Observation 2). Scoring of the
    // ending stage is deferred until the loading judgement is confirmed
    // (a transient dip must be withdrawable, §IV-B2 case 2).
    previous_stage_ = current_stage_;
    enter_stage(profile_->loading_stage_type, t);
    loading_entered_ = t;
    first_loading_detection_ = true;
    predicted_next_ =
        predictor_->predict_next(exec_history_, player_id_, mode_);
    return MonitorEvent::kEnteredLoading;
  }

  window_clusters_[cluster] += 1;

  // Signature completion: the accumulated window may reveal that this
  // stage is a multi-cluster type (§IV-A's three-boss realm) — upgrade the
  // judgement without treating it as an error.
  const int resolved = resolve_stage_from_window();
  if (resolved >= 0 && resolved != current_stage_) {
    const auto& cur_sig = profile_->stage_type(current_stage_).clusters;
    const auto& new_sig = profile_->stage_type(resolved).clusters;
    const bool upgrade = std::includes(new_sig.begin(), new_sig.end(),
                                       cur_sig.begin(), cur_sig.end());
    if (upgrade) {
      enter_stage(resolved, t);
      relabel_last(resolved);
      return MonitorEvent::kStageRefined;
    }
  }

  const bool in_signature =
      std::find(st.clusters.begin(), st.clusters.end(), cluster) !=
      st.clusters.end();
  if (in_signature) {
    pending_jump_stage_ = -1;
    return MonitorEvent::kSameStage;
  }

  // §IV-B2 callback case 1: real-time data differs from the current stage
  // and is not loading. Re-match, but require two consecutive detections
  // before jumping — a single outlier is the Fig. 10 transient.
  const int matched = match_execution_stage(cluster);
  if (matched < 0) return MonitorEvent::kSameStage;  // unknown cluster mix
  if (view_saturated &&
      profile_->stage_type(matched).peak_demand.fits_within(
          st.peak_demand)) {
    // Under saturation a squeezed draw mimics a lower-demand stage; hold
    // the current judgement until the pressure clears.
    pending_jump_stage_ = -1;
    return MonitorEvent::kSameStage;
  }
  if (pending_jump_stage_ == matched) {
    ++callbacks_;
    ++consecutive_errors_;
    // The history's last entry was the mis-judged stage: fix it and let
    // the window restart from the jump target's evidence.
    relabel_last(matched);
    enter_stage(matched, t);
    window_clusters_.clear();
    window_clusters_[cluster] = 2;  // the two confirming detections
    return MonitorEvent::kRehearsalCallback;
  }
  pending_jump_stage_ = matched;
  return MonitorEvent::kPendingJump;
}

DurationMs OnlineMonitor::stage_elapsed_ms(TimeMs now) const {
  COCG_EXPECTS(current_stage_ >= 0);
  return now - stage_entered_;
}

ResourceVector OnlineMonitor::recommended_allocation() const {
  if (current_stage_ < 0) {
    // Nothing judged yet: provision for the worst case.
    return profile_->peak_demand;
  }
  // Redundancy allocation (Eq. 1) applies to the *callback* path: after a
  // prediction error the allocation carries S = (1 − P) × M until the next
  // correct judgement. Allocations never exceed M itself — the peak covers
  // every stage by definition.
  const ResourceVector redundancy =
      consecutive_errors_ > 0
          ? predictor_->redundancy() * cfg_.redundancy_scale
          : ResourceVector{};
  const auto& st = profile_->stage_type(current_stage_);
  if (!st.loading) {
    return ResourceVector::min(st.peak_demand + redundancy,
                               profile_->peak_demand);
  }
  // Loading: cover the loading draw and pre-provision the predicted next
  // stage so it starts unconstrained.
  ResourceVector rec = st.peak_demand * kLoadingMargin;
  if (predicted_next_ >= 0 &&
      predicted_next_ < profile_->num_stage_types()) {
    rec = ResourceVector::max(
        rec, ResourceVector::min(
                 profile_->stage_type(predicted_next_).peak_demand +
                     redundancy,
                 ResourceVector::max(profile_->peak_demand,
                                     st.peak_demand * kLoadingMargin)));
  }
  return rec;
}

std::vector<ResourceVector> OnlineMonitor::predicted_peaks(int n) const {
  std::vector<ResourceVector> out;
  if (current_stage_ >= 0) {
    out.push_back(profile_->stage_type(current_stage_).peak_demand);
  }
  const auto seq =
      predictor_->predict_sequence(exec_history_, player_id_, mode_, n);
  for (int st : seq) {
    if (st >= 0 && st < profile_->num_stage_types()) {
      out.push_back(profile_->stage_type(st).peak_demand);
    }
  }
  return out;
}

}  // namespace cocg::core
