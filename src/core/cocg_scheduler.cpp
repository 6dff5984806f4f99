#include "core/cocg_scheduler.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "common/rng.h"
#include "schedcheck/session.h"
#include "telemetry/sample_window.h"

namespace cocg::core {

CocgScheduler::CocgScheduler(std::map<std::string, TrainedGame> models,
                             CocgConfig cfg)
    : models_(std::move(models)),
      cfg_(cfg),
      distributor_(cfg.distributor),
      regulator_(cfg.regulator) {
  COCG_EXPECTS_MSG(!models_.empty(), "CoCG needs at least one trained game");
  COCG_EXPECTS_MSG(cfg_.detection_window >= 1 &&
                       cfg_.detection_window <=
                           telemetry::SampleWindow::kCapacity,
                   "CocgConfig::detection_window must be in [1, " +
                       std::to_string(telemetry::SampleWindow::kCapacity) +
                       "]");
  for (const auto& [name, tg] : models_) {
    COCG_EXPECTS_MSG(tg.predictor != nullptr,
                     "TrainedGame must be fully populated");
  }
  auto& reg = obs::metrics();
  obs_accepted_ = reg.counter("scheduler.admit.accepted");
  obs_rejected_ = reg.counter("scheduler.admit.rejected");
  obs_holds_ = reg.counter("regulator.holds");
  obs_replacements_ = reg.counter("scheduler.model_replacements");
  obs_outlook_hits_ = reg.counter("scheduler.outlook_memo.hits");
  obs_outlook_misses_ = reg.counter("scheduler.outlook_memo.misses");
  obs_candidate_hits_ = reg.counter("scheduler.candidate_memo.hits");
  obs_candidate_misses_ = reg.counter("scheduler.candidate_memo.misses");
  obs_reject_hits_ = reg.counter("scheduler.reject_memo.hits");
  obs_reject_misses_ = reg.counter("scheduler.reject_memo.misses");
  obs_view_cache_hits_ = reg.counter("scheduler.view_cache.hits");
  obs_view_cache_misses_ = reg.counter("scheduler.view_cache.misses");
  prof_predictor_ = obs::stage_timer(obs::Stage::kPredictorDecide);
  prof_distributor_ = obs::stage_timer(obs::Stage::kDistributorDecide);
  prof_regulator_ = obs::stage_timer(obs::Stage::kRegulator);
}

const TrainedGame& CocgScheduler::model(const std::string& game) const {
  auto it = models_.find(game);
  COCG_EXPECTS_MSG(it != models_.end(), "no trained model for " + game);
  return it->second;
}

ResourceVector CocgScheduler::view_capacity(
    const platform::PlatformView& view, ServerId server, int gpu) const {
  const auto& srv = view.server(server);
  ResourceVector cap = srv.spec().per_gpu_capacity();
  // Sessions pinned to other GPUs still drain the shared CPU/RAM pools.
  // Summed GPU-major, then by session id.
  double other_cpu = 0.0, other_ram = 0.0;
  for (int g = 0; g < srv.spec().num_gpus; ++g) {
    if (g == gpu) continue;
    for (const auto& h : srv.hosted()) {
      if (h.placement.gpu_index != g) continue;
      other_cpu += h.placement.allocation[Dim::kCpuPct];
      other_ram += h.placement.allocation[Dim::kRamMb];
    }
  }
  cap[Dim::kCpuPct] = std::max(0.0, cap[Dim::kCpuPct] - other_cpu);
  cap[Dim::kRamMb] = std::max(0.0, cap[Dim::kRamMb] - other_ram);
  return cap;
}

namespace {

/// Time-weighted expected demand of a stage-type sequence: each stage's
/// mean demand weighted by its catalog mean duration, with one loading
/// stage between consecutive execution stages.
ResourceVector expected_demand(const GameProfile& profile,
                               const std::vector<int>& exec_seq) {
  ResourceVector weighted;
  double total_ms = 0.0;
  auto add_stage = [&](int type_id) {
    if (type_id < 0 || type_id >= profile.num_stage_types()) return;
    const auto& st = profile.stage_type(type_id);
    const double w = static_cast<double>(std::max<DurationMs>(
        st.mean_duration_ms, 1000));
    weighted += st.mean_demand * w;
    total_ms += w;
  };
  for (std::size_t i = 0; i < exec_seq.size(); ++i) {
    add_stage(exec_seq[i]);
    if (profile.loading_stage_type >= 0 && i + 1 < exec_seq.size()) {
      add_stage(profile.loading_stage_type);
    }
  }
  if (total_ms <= 0.0) return profile.peak_demand;
  return weighted * (1.0 / total_ms);
}

}  // namespace

SessionOutlook CocgScheduler::outlook_for(const SessionState& st) const {
  const TrainedGame& tg = *st.model;
  const auto& profile = tg.profile();
  SessionOutlook o;
  o.in_loading = st.monitor->in_loading();
  const int cur = st.monitor->current_stage();
  if (cur >= 0) {
    o.current_peak = profile.stage_type(cur).peak_demand;
  } else {
    // Monitor has not judged yet: assume the game's peak.
    o.current_peak = profile.peak_demand;
  }
  // Forward sequence: current stage (if execution) plus predictions.
  std::vector<int> seq;
  if (cur >= 0 && !profile.stage_type(cur).loading) seq.push_back(cur);
  const auto pred = tg.predictor->predict_sequence(
      st.monitor->exec_history(), st.player_id, st.script_idx,
      cfg_.distributor.horizon);
  seq.insert(seq.end(), pred.begin(), pred.end());
  o.expected = expected_demand(profile, seq);
  return o;
}

const SessionOutlook& CocgScheduler::hosted_outlook(SessionState& st) {
  // outlook_for reads the monitor's judged state and the predictor's
  // model; the profile, player and script never change.
  const std::uint64_t version = st.monitor->version();
  const std::uint64_t generation = st.model->predictor->generation();
  if (st.outlook && st.outlook_version == version &&
      st.outlook_generation == generation) {
    obs_outlook_hits_.add();
    return *st.outlook;
  }
  obs_outlook_misses_.add();
  st.outlook_version = version;
  st.outlook_generation = generation;
  return st.outlook.emplace(outlook_for(st));
}

CandidateOutlook CocgScheduler::candidate_outlook(
    const TrainedGame& tg, std::uint64_t player_id,
    std::size_t script_idx) const {
  CandidateOutlook c;
  const auto& profile = tg.profile();
  // Opening stage: the initialization loading (cheap on GPU).
  c.opening = profile.loading_stage_type >= 0
                  ? profile.stage_type(profile.loading_stage_type).peak_demand
                  : profile.peak_demand;
  // Predicted run: peak and expected demand with redundancy (Eq. 1).
  const std::vector<int> seq = tg.predictor->predict_sequence(
      {}, player_id, script_idx, cfg_.distributor.horizon);
  c.peak = profile.peak_demand;
  for (int stt : seq) {
    if (stt >= 0 && stt < profile.num_stage_types()) {
      c.peak = ResourceVector::max(
          c.peak, profile.stage_type(stt).peak_demand);
    }
  }
  // Note: Eq. 1's redundancy S fattens *allocations*, not admission — the
  // distributor reasons about real expected consumption.
  c.expected = expected_demand(profile, seq);
  c.short_game = tg.spec->short_game;
  c.expected_duration_ms = tg.bundle().mean_run_duration_ms;
  return c;
}

std::size_t CocgScheduler::CandidateKeyHash::operator()(
    const CandidateKey& k) const {
  SplitMix64 mix(reinterpret_cast<std::uintptr_t>(k.game) ^
                 (k.player_id * 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<std::uint64_t>(k.script_idx) << 56));
  return static_cast<std::size_t>(mix.next());
}

const CocgScheduler::CandidateEntry& CocgScheduler::memo_candidate(
    const CandidateKey& key) {
  auto it = candidate_memo_.find(key);
  if (it != candidate_memo_.end()) {
    obs_candidate_hits_.add();
    return it->second;
  }
  obs_candidate_misses_.add();
  CandidateEntry entry;
  entry.outlook =
      candidate_outlook(*key.game, key.player_id, key.script_idx);
  entry.class_id = classes_.id(entry.outlook);
  return candidate_memo_.emplace(key, entry).first->second;
}

const std::vector<CocgScheduler::ViewSummary>& CocgScheduler::view_summaries(
    const platform::PlatformView& view) {
  if (summaries_valid_) {
    obs_view_cache_hits_.add();
    return summaries_;
  }
  obs_view_cache_misses_.add();
  summaries_.clear();
  summary_outlooks_.clear();
  for (ServerId server : view.server_ids()) {
    const auto& srv = view.server(server);
    for (int g = 0; g < srv.spec().num_gpus; ++g) {
      // Redundancy-fattened allocations may transiently oversubscribe a
      // view; new sessions cannot be placed there until it drains.
      if (!srv.allocated_on_gpu(g).fits_within(
              srv.spec().per_gpu_capacity())) {
        continue;
      }
      ViewSummary v;
      v.server = server;
      v.gpu = g;
      v.capacity = view_capacity(view, server, g);
      v.first = summary_outlooks_.size();
      for (const auto& h : srv.hosted()) {
        if (h.placement.gpu_index != g) continue;
        auto it = state_.find(h.sid);
        if (it == state_.end()) continue;
        summary_outlooks_.push_back(hosted_outlook(it->second));
      }
      v.last = summary_outlooks_.size();
      summaries_.push_back(v);
    }
  }
  summaries_valid_ = true;
  return summaries_;
}

std::optional<platform::Placement> CocgScheduler::admit(
    platform::PlatformView& view, const platform::GameRequest& req) {
  const TimeMs now = view.now();
  auto log_decision = [&](bool admitted, std::string_view reason,
                          ServerId server = ServerId{}, int gpu = -1) {
    (admitted ? obs_accepted_ : obs_rejected_).add();
    if (!obs::enabled()) return;
    obs::AdmissionEvent ev;
    ev.request = req.id.value;
    ev.game = req.spec->name;
    ev.admitted = admitted;
    ev.reason = std::string(reason);
    ev.server = server.value;
    ev.gpu = gpu;
    ev.waited_ms = now - req.arrival;
    obs::events().record(now, std::move(ev));
  };

  auto mit = models_.find(req.spec->name);
  if (mit == models_.end()) {  // untrained game
    log_decision(false, "no trained model");
    return std::nullopt;
  }
  const TrainedGame& tg = mit->second;
  const CandidateKey key{&tg, req.player_id, req.script_idx};
  const CandidateEntry* entry = nullptr;
  {
    obs::StageScope predictor_scope(prof_predictor_);
    entry = &memo_candidate(key);
  }
  const CandidateOutlook* cand = &entry->outlook;

  // Rejection replay: within one epoch nothing the view scan reads
  // changes, so a candidate of a rejected class meets the same verdict
  // from every view.
  for (const Rejection& r : rejections_) {
    if (r.class_id == entry->class_id) {
      obs_reject_hits_.add();
      distributor_.replay_rejects(r.views);
      log_decision(false, r.reason);
      return std::nullopt;
    }
  }
  obs_reject_misses_.add();

  // Best-fit complementary placement: among all views the distributor
  // admits, pick the one whose resulting expected utilization is lowest —
  // spreading expected load evens out peak-collision odds across views.
  struct Choice {
    ServerId server;
    int gpu = 0;
    double score = 0.0;       // resulting max-dim expected utilization
    std::string_view reason;  // distributor verdict for the winning view
  };
  std::optional<Choice> best;
  std::string_view last_reject;
  RejectCounts rejected_views{};

  {
    obs::StageScope distributor_scope(prof_distributor_);
    for (const ViewSummary& v : view_summaries(view)) {
      const std::span<const SessionOutlook> hosted(
          summary_outlooks_.data() + v.first, v.last - v.first);
      const AdmitDecision d = distributor_.decide(v.capacity, hosted, *cand);
      if (!d.admit) {
        last_reject = d.reason;
        ++rejected_views[static_cast<std::size_t>(d.rejected)];
        continue;
      }

      ResourceVector expected_total = cand->expected;
      for (const auto& h : hosted) expected_total += h.expected;
      double score = 0.0;
      for (std::size_t dim = 0; dim < kNumDims; ++dim) {
        if (v.capacity.at(dim) > 0.0) {
          score = std::max(score, expected_total.at(dim) / v.capacity.at(dim));
        }
      }
      if (!best || score < best->score) {
        best = Choice{v.server, v.gpu, score, d.reason};
      }
    }
  }
  if (!best) {
    const std::string_view reason =
        last_reject.empty() ? "no capacity view available" : last_reject;
    if (entry->class_id != AlikeClasses::kNoClass) {
      rejections_.push_back({entry->class_id, reason, rejected_views});
    }
    log_decision(false, reason);
    return std::nullopt;
  }
  log_decision(true, best->reason, best->server, best->gpu);

  const auto& srv = view.server(best->server);
  // Initial allocation: provision the opening loading stage and the first
  // predicted execution stage plus redundancy (§IV-B: "once a game is
  // detected as loading, reassign resources to accommodate its next
  // execution stage"), clamped to the hardware actually free. The control
  // loop re-provisions within 5 s.
  ResourceVector alloc = cand->opening;
  const int first =
      tg.predictor->predict_next({}, req.player_id, req.script_idx);
  if (first >= 0 && first < tg.profile().num_stage_types()) {
    alloc = ResourceVector::max(alloc,
                                tg.profile().stage_type(first).peak_demand +
                                    tg.predictor->redundancy());
  }
  alloc = ResourceVector::min(alloc, srv.free_on_gpu(best->gpu));
  // The admitted request leaves the queue; its key's entry goes with it.
  candidate_memo_.erase(key);
  platform::Placement placement;
  placement.server = best->server;
  placement.gpu_index = best->gpu;
  placement.allocation = alloc;
  return placement;
}

void CocgScheduler::on_session_start(platform::PlatformView& view,
                                     SessionId sid) {
  const auto info = view.session_info(sid);
  const TrainedGame& tg = model(info.spec->name);
  SessionState st;
  st.model = &tg;
  st.monitor = std::make_unique<OnlineMonitor>(
      tg.predictor.get(), info.player_id, info.script_idx, cfg_.monitor);
  st.monitor->set_session_id(sid.value);
  st.game = info.spec->name;
  st.player_id = info.player_id;
  st.script_idx = info.script_idx;
  st.server = info.server;
  st.gpu = info.gpu_index;
  state_.emplace(sid, std::move(st));
  new_epoch();
}

void CocgScheduler::on_session_end(platform::PlatformView& view,
                                   SessionId sid) {
  (void)view;
  state_.erase(sid);
  new_epoch();
}

void CocgScheduler::update_monitor(platform::PlatformView& view,
                                   SessionId sid, SessionState& st,
                                   bool view_saturated) {
  const auto& samples = view.session_samples(sid);
  const std::size_t count = samples.count();
  if (count <= st.samples_consumed) return;

  // Aggregate the newest detection window into one 5-second observation.
  const std::size_t first =
      count > cfg_.detection_window ? count - cfg_.detection_window : 0;
  const std::size_t begin = std::max(first, st.samples_consumed);
  ResourceVector mean;
  std::size_t n = 0;
  for (std::size_t i = begin; i < count; ++i) {
    mean += samples.at(i).usage;
    ++n;
  }
  COCG_CHECK(n > 0);
  mean *= 1.0 / static_cast<double>(n);
  st.samples_consumed = count;

  const bool was_loading = st.monitor->in_loading();
  const int hits_before = st.monitor->prediction_hits();
  const MonitorEvent ev =
      st.monitor->observe(view.now(), mean, view_saturated);
  // Feed fresh prediction outcomes back into Eq. 1's P (online refinement).
  const int total_now =
      st.monitor->prediction_hits() + st.monitor->prediction_misses();
  if (total_now > st.outcomes_reported) {
    const bool hit = st.monitor->prediction_hits() > hits_before;
    st.model->predictor->record_outcome(hit);
    st.outcomes_reported = total_now;
  }
  if (was_loading &&
      (ev == MonitorEvent::kEnteredExecution ||
       ev == MonitorEvent::kRehearsalCallback)) {
    // Loading finished (or was withdrawn): the steal budget resets and any
    // hold must be released.
    st.stolen_ms = 0;
    if (st.held) {
      view.hold_loading(sid, false);
      st.held = false;
    }
  }
}

void CocgScheduler::control(platform::PlatformView& view) {
  // What admit() reads changes at three points only: a placement appears
  // in on_session_start, one goes in on_session_end, and allocations,
  // monitors and models change here (reallocate and hold_loading run only
  // inside control()). Each starts a new epoch, so a rejection replayed
  // within one is the verdict its view scan would give.
  new_epoch();

  // Step 1-3 of Fig. 8: collect, judge, predict — per session. A view is
  // saturated when the allocations pinned to it oversubscribe it; judged
  // stages on such views must not drift downward (squeezed supply mimics
  // a calmer stage).
  {
    obs::StageScope predictor_scope(prof_predictor_);
    // Nothing below reallocates before step 4, so one flag per view holds
    // for the whole walk.
    std::size_t stride = 0, servers = 0;
    for (ServerId server : view.server_ids()) {
      stride = std::max<std::size_t>(
          stride,
          static_cast<std::size_t>(view.server(server).spec().num_gpus));
      servers = std::max<std::size_t>(servers, server.value + 1);
    }
    saturated_.assign(servers * stride, 0);
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        saturated_[server.value * stride + static_cast<std::size_t>(g)] =
            !srv.allocated_on_gpu(g).fits_within(
                srv.spec().per_gpu_capacity());
      }
    }
    for (auto& [sid, st] : state_) {
      update_monitor(
          view, sid, st,
          saturated_[st.server.value * stride +
                     static_cast<std::size_t>(st.gpu)] != 0);
    }
  }

  // Replacing-model fallback (§IV-B2): rotate a game's model when any of
  // its sessions accumulates persistent errors.
  std::map<std::string, bool> replace;
  for (auto& [sid, st] : state_) {
    if (st.monitor->consecutive_errors() >= cfg_.replace_model_after) {
      replace[st.game] = true;
    }
  }
  for (const auto& [game, _] : replace) {
    auto& tg = models_.at(game);
    if (!tg.predictor->can_retrain()) {
      // Bundle restored without its training corpus (§IV-B2 fallback
      // unavailable): keep the current model and clear the streaks so the
      // request does not repeat every control tick.
      COCG_INFO("CoCG cannot replace model for "
                << game << " (no training corpus in bundle), keeping "
                << ml::model_kind_name(tg.predictor->model_kind()));
      for (auto& [sid, st] : state_) {
        if (st.game == game) st.monitor->reset_error_streak();
      }
      continue;
    }
    // Schedule point: fire the replacement now (1) or skip this control
    // tick (0). Skipping still clears the streaks, so a forced skip delays
    // the migration by at least another full error streak.
    if (schedcheck::decide(schedcheck::Point::kMigrationTrigger, 2, 1) == 0) {
      for (auto& [sid, st] : state_) {
        if (st.game == game) st.monitor->reset_error_streak();
      }
      continue;
    }
    tg.predictor->replace_model();
    // The new model changes this game's candidate predictions; a candidate
    // outlook reads only its own game's predictor and profile.
    std::erase_if(candidate_memo_, [&](const auto& entry) {
      return entry.first.game == &tg;
    });
    // Renumber the surviving entries so the class table holds only their
    // outlooks; this epoch has no rejection yet to carry an old id.
    classes_.clear();
    for (auto& [key, entry] : candidate_memo_) {
      entry.class_id = classes_.id(entry.outlook);
    }
    ++model_replacements_;
    obs_replacements_.add();
    COCG_INFO("CoCG replaced model for " << game << " -> "
                                         << ml::model_kind_name(
                                                tg.predictor->model_kind()));
    for (auto& [sid, st] : state_) {
      if (st.game == game) st.monitor->reset_error_streak();
    }
  }

  // Step 4 of Fig. 8 + regulator: per GPU view, apply recommended
  // allocations, stealing loading time when the view is over the limit.
  obs::StageScope regulator_scope(prof_regulator_);
  for (ServerId server : view.server_ids()) {
    const auto& srv = view.server(server);
    for (int g = 0; g < srv.spec().num_gpus; ++g) {
      pressures_.clear();
      pressured_.clear();
      for (const auto& h : srv.hosted()) {
        if (h.placement.gpu_index != g) continue;
        auto it = state_.find(h.sid);
        if (it == state_.end()) continue;
        auto& st = it->second;
        SessionPressure p;
        p.sid = h.sid;
        p.in_loading = st.monitor->in_loading();
        p.wanted = st.monitor->recommended_allocation();
        // Saturation probe: allocations cap what the monitor can observe,
        // so a starved session masquerades as a low-demand stage. The
        // tell-tale is usage *pinned* at the cap: an unconstrained session
        // fluctuates below its allocation about half the time, a starved
        // one draws ≥98% of the cap in every sample. Grow pinned
        // dimensions so the monitor can see the true demand.
        {
          const auto& samples = view.session_samples(h.sid);
          const std::size_t count = samples.count();
          if (count >= cfg_.detection_window) {
            const ResourceVector& cur_alloc = h.placement.allocation;
            const std::size_t first = count - cfg_.detection_window;
            const ResourceVector ceiling =
                st.model->profile().peak_demand +
                st.model->predictor->redundancy();
            for (std::size_t dim = 0; dim < kNumDims; ++dim) {
              if (cur_alloc.at(dim) <= 0.0) continue;
              bool pinned = true;
              for (std::size_t i = first; i < count; ++i) {
                if (samples.at(i).usage.at(dim) <
                    0.98 * cur_alloc.at(dim)) {
                  pinned = false;
                  break;
                }
              }
              if (pinned) {
                p.wanted.at(dim) = std::max(
                    p.wanted.at(dim),
                    std::min(cur_alloc.at(dim) * 1.3, ceiling.at(dim)));
              }
            }
          }
        }
        const auto& profile = st.model->profile();
        p.loading_demand =
            profile.loading_stage_type >= 0
                ? profile.stage_type(profile.loading_stage_type).peak_demand
                : p.wanted;
        p.stolen_ms = st.stolen_ms;
        pressures_.push_back(p);
        pressured_.push_back(&st);
      }
      if (pressures_.empty()) continue;
      const ResourceVector cap = view_capacity(view, server, g);
      regulator_.resolve(cap, pressures_, actions_);
      for (std::size_t i = 0; i < actions_.size(); ++i) {
        SessionState& st = *pressured_[i];
        const auto& act = actions_[i];
        const bool was_held = st.held;
        view.hold_loading(act.sid, act.hold);
        view.reallocate(act.sid, act.allocation,
                        /*allow_oversubscribe=*/true);
        if (act.hold) {
          st.stolen_ms += static_cast<DurationMs>(cfg_.detection_window) *
                          1000;  // one detection period stolen
          st.held = true;
          obs_holds_.add();
        } else {
          st.held = false;
        }
        // Log holds and releases; the steady no-hold state is not an
        // intervention.
        if (obs::enabled() && (act.hold || was_held)) {
          obs::events().record(
              view.now(),
              obs::RegulatorIntervention{act.sid.value, st.game, act.hold,
                                         st.stolen_ms});
        }
      }
    }
  }
}

int CocgScheduler::total_callbacks() const {
  int total = 0;
  for (const auto& [sid, st] : state_) total += st.monitor->callbacks();
  return total;
}

}  // namespace cocg::core
