#include "platform/cloud_platform.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "game/plan.h"
#include "schedcheck/fault.h"
#include "schedcheck/session.h"

namespace cocg::platform {

namespace {

/// Trace pid of one server (pid 0 is reserved for the scheduler track).
int trace_pid(ServerId id) { return static_cast<int>(id.value) + 1; }

/// Stage-span key of a ground-truth observation: -1 loading, else stage.
int stage_key(bool loading, int stage_type) {
  return loading ? -1 : stage_type;
}

/// Cap on the utilization log's speculative reservation (points).
constexpr std::size_t kMaxSpeculativeReserve = 1u << 20;

}  // namespace

std::vector<obs::SloClassConfig> default_slo_classes() {
  // Indexed by game::GameCategory: kWeb, kMobile, kConsole, kMoba.
  return {
      {"web", 0.80, 150.0},
      {"mobile", 0.90, 120.0},
      {"console", 0.90, 100.0},
      {"moba", 0.95, 80.0},
  };
}

CloudPlatform::CloudPlatform(PlatformConfig cfg,
                             std::unique_ptr<Scheduler> scheduler)
    : cfg_(cfg),
      scheduler_(std::move(scheduler)),
      rng_(cfg.seed),
      streaming_(cfg.streaming) {
  COCG_EXPECTS(scheduler_ != nullptr);
  COCG_EXPECTS(cfg_.tick_ms > 0);
  COCG_EXPECTS(cfg_.control_period_ms >= cfg_.tick_ms);
  auto& reg = obs::metrics();
  obs_requests_ = reg.counter("platform.requests_submitted");
  obs_admitted_ = reg.counter("platform.sessions_admitted");
  obs_completed_ = reg.counter("platform.sessions_completed");
  obs_hw_ticks_ = reg.counter("platform.hardware_ticks");
  obs_session_ticks_ = reg.counter("platform.session_ticks");
  obs_control_ticks_ = reg.counter("platform.control_ticks");
  obs_queue_depth_ = reg.gauge("platform.queue_depth");
  obs_running_ = reg.gauge("platform.running_sessions");
  obs_wait_ms_ = reg.histogram(
      "platform.admission_wait_ms",
      {1000, 5000, 15000, 30000, 60000, 120000, 300000});
  prof_rng_ = obs::stage_timer(obs::Stage::kRngDraws);
  prof_kernels_ = obs::stage_timer(obs::Stage::kResourceKernels);
  prof_domain_ = &obs::profiler();
  slo_.configure(default_slo_classes());
}

CloudPlatform::~CloudPlatform() = default;

ServerId CloudPlatform::add_server(const hw::ServerSpec& spec) {
  const ServerId id{servers_.size()};
  servers_.emplace_back(id, spec);
  server_ids_.push_back(id);
  auto& gauges = obs_util_.emplace_back();
  const std::string base = "platform.util.s" + std::to_string(id.value);
  for (int g = 0; g < spec.num_gpus; ++g) {
    gauges.push_back(obs::metrics().gauge(
        base + ".g" + std::to_string(g) + ".max_dim_fraction"));
  }
  // Intern the per-device trace counter names once, not per tick.
  while (gpu_util_names_.size() < static_cast<std::size_t>(spec.num_gpus)) {
    gpu_util_names_.push_back(
        "gpu" + std::to_string(gpu_util_names_.size()) + " util");
  }
  if (obs::trace_enabled()) {
    obs::trace().set_process_name(
        trace_pid(id), "server" + std::to_string(id.value) + " (" +
                           spec.name + ")");
  }
  return id;
}

void CloudPlatform::add_source(const SourceConfig& source) {
  COCG_EXPECTS(source.spec != nullptr);
  COCG_EXPECTS(source.max_concurrent >= 1);
  COCG_EXPECTS(source.player_pool >= 1);
  sources_.push_back(SourceState{source, 0});
}

RequestId CloudPlatform::submit(const game::GameSpec* spec,
                                std::size_t script_idx,
                                std::uint64_t player_id) {
  return submit(spec, script_idx, player_id, RequestMeta{});
}

RequestId CloudPlatform::submit(const game::GameSpec* spec,
                                std::size_t script_idx,
                                std::uint64_t player_id,
                                const RequestMeta& meta) {
  return enqueue(spec, script_idx, player_id, meta, /*source=*/-1);
}

RequestId CloudPlatform::enqueue(const game::GameSpec* spec,
                                 std::size_t script_idx,
                                 std::uint64_t player_id,
                                 const RequestMeta& meta, int source) {
  COCG_EXPECTS(spec != nullptr);
  COCG_EXPECTS(script_idx < spec->scripts.size());
  GameRequest req;
  req.id = RequestId{next_request_++};
  req.spec = spec;
  req.script_idx = script_idx;
  req.player_id = player_id;
  req.arrival = engine_.now();
  req.meta = meta;
  req.source = source;
  queue_.push_back(req);
  obs_requests_.add();
  if (arrival_hook_) arrival_hook_(queue_.back());
  return req.id;
}

void CloudPlatform::replenish_sources() {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    auto& src = sources_[i];
    while (src.outstanding < src.cfg.max_concurrent) {
      const auto script = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(src.cfg.spec->scripts.size()) - 1));
      const auto player =
          static_cast<std::uint64_t>(rng_.uniform_int(1, src.cfg.player_pool));
      enqueue(src.cfg.spec, script, player, RequestMeta{},
              static_cast<int>(i));
      ++src.outstanding;
    }
  }
}

void CloudPlatform::try_admit_queue() {
  if (queue_.empty()) return;  // common case on idle control ticks
  // FIFO scan; requests the scheduler rejects stay queued for the next
  // control period (Fig. 11: games continuously request "until the
  // distributor passes the request").
  std::deque<GameRequest> remaining;
  while (!queue_.empty()) {
    GameRequest req = queue_.front();
    queue_.pop_front();
    auto placement = scheduler_->admit(*this, req);
    if (!placement) {
      remaining.push_back(req);
      continue;
    }
    // Schedule point: commit the placement now (1) or defer the request to
    // the next admission pass (0). The natural choice is always commit;
    // replay/fuzzing uses the deferral arm to shift admissions relative to
    // other shards' decisions.
    if (schedcheck::decide(schedcheck::Point::kAdmission, 2, 1) == 0) {
      remaining.push_back(req);
      continue;
    }
    // Materialize the session.
    const SessionId sid{next_session_++};
    auto& srv = server_mut(placement->server);
    const bool placed =
        srv.place(sid, placement->gpu_index, placement->allocation);
    if (!placed) {
      COCG_WARN("scheduler " << scheduler_->name()
                             << " returned an infeasible placement; request "
                             << req.id.value << " requeued");
      remaining.push_back(req);
      continue;
    }
    auto plan = game::generate_plan(*req.spec, req.script_idx, req.player_id,
                                    rng_);
    ActiveSession& as = sessions_.emplace(sid);
    as.session = std::make_unique<game::GameSession>(
        sid, req.spec, req.script_idx, std::move(plan), rng_.fork(),
        cfg_.session);
    as.server = placement->server;
    as.gpu_index = placement->gpu_index;
    as.script_idx = req.script_idx;
    as.player_id = req.player_id;
    as.request_arrival = req.arrival;
    as.meta = req.meta;
    as.source = req.source;
    as.session->begin(engine_.now());
    obs_admitted_.add();
    obs_wait_ms_.record(
        static_cast<double>(engine_.now() - req.arrival));
    obs::events().record(
        engine_.now(),
        obs::SessionEvent{sid.value, req.spec->name, /*started=*/true,
                          placement->server.value, placement->gpu_index});
    if (obs::trace_enabled()) {
      obs::trace().set_thread_name(
          trace_pid(placement->server), static_cast<int>(sid.value),
          req.spec->name + "#" + std::to_string(sid.value));
    }
    scheduler_->on_session_start(*this, sid);
    // Test-only planted bug (schedcheck fuzzer efficacy): when an
    // admission lands while any session sits in a regulator loading hold,
    // mirror the new session onto the next server with a zero allocation —
    // a cross-server double-host only that interleaving can produce.
    if (schedcheck::fault() == schedcheck::Fault::kDoubleHostWindow &&
        servers_.size() >= 2) {
      bool hold_open = false;
      sessions_.for_each([&](SessionId other, const ActiveSession& o) {
        if (other != sid && o.session != nullptr &&
            o.session->loading_hold()) {
          hold_open = true;
        }
      });
      if (hold_open) {
        const ServerId shadow{(placement->server.value + 1) %
                              servers_.size()};
        server_mut(shadow).place(sid, 0, ResourceVector{});
      }
    }
  }
  queue_ = std::move(remaining);
}

const std::string& CloudPlatform::span_name(int key) {
  if (key < 0) return loading_span_name_;
  const auto k = static_cast<std::size_t>(key);
  while (exec_span_names_.size() <= k) {
    exec_span_names_.push_back("exec:" +
                               std::to_string(exec_span_names_.size()));
  }
  return exec_span_names_[k];
}

void CloudPlatform::roll_stage_span(ActiveSession& as, SessionId sid,
                                    int key, TimeMs t) {
  if (as.span_stage == key) return;
  auto& tb = obs::trace();
  const int pid = trace_pid(as.server);
  const int tid = static_cast<int>(sid.value);
  if (as.span_stage != -2 && t > as.span_start) {
    tb.add_complete(pid, tid, span_name(as.span_stage), "stage",
                    as.span_start, t - as.span_start);
  }
  as.span_stage = key;
  as.span_start = t;
}

void CloudPlatform::hardware_tick() {
  const TimeMs t = engine_.now();
  obs_hw_ticks_.add();
  const bool obs_on = obs::enabled();
  const bool trace_on = obs::trace_enabled();

  // Per server: gather draws, resolve contention, advance sessions. The
  // hosted() view is iterated in ascending-sid order, matching the legacy
  // map-backed walk draw for draw.
  for (const auto& srv : servers_) {
    const auto& hosted = srv.hosted();
    if (hosted.empty()) continue;
    auto& draws = scratch_.draws;
    auto& live = scratch_.live;
    draws.clear();
    live.clear();
    for (const auto& h : hosted) {
      ActiveSession* as = sessions_.find(h.sid);
      COCG_CHECK(as != nullptr);
      hw::PinnedDraw pd;
      pd.draw.sid = h.sid;
      pd.draw.demand = as->session->demand();
      pd.draw.allocation = h.placement.allocation;
      pd.gpu_index = as->gpu_index;
      draws.push_back(pd);
      live.push_back(as);
    }
    const auto& supplies =
        hw::resolve_server(srv.spec(), draws, scratch_.resolve);
    obs_session_ticks_.add(draws.size());

    // Utilization snapshots (per GPU view). The registry gauges and trace
    // counter tracks are the metrics-facing export; util_log_ keeps the
    // Fig. 9 accessors working. Accumulated in one pass over sessions —
    // per-view sums still add in session order, so totals are bit-identical
    // to the per-view rescan this replaced.
    if (record_utilization_ || obs_on) {
      const ResourceVector cap = srv.spec().per_gpu_capacity();
      const auto ngpus = static_cast<std::size_t>(srv.spec().num_gpus);
      auto& util = scratch_.util;
      // Grow-once scratch: keep the per-GPU slots allocated across servers
      // and ticks, re-zeroing the fields in place instead of the former
      // clear()/resize() destroy-construct churn.
      if (util.size() < ngpus) util.resize(ngpus);
      for (std::size_t g = 0; g < ngpus; ++g) {
        util[g].t = t;
        util[g].server = srv.id();
        util[g].gpu_index = static_cast<int>(g);
        util[g].total_supplied = ResourceVector{};
        util[g].max_dim_fraction = 0.0;
      }
      // CPU/RAM are charged to every view; every view adds the same
      // supplies in the same session order, so one ordered sum equals each
      // view's sequential total bit-for-bit. GPU dims bucket to the pinned
      // view in draw order.
      double cpu_sum = 0.0;
      double ram_sum = 0.0;
      for (std::size_t i = 0; i < draws.size(); ++i) {
        const ResourceVector& sup = supplies[i].supplied;
        cpu_sum += sup[Dim::kCpuPct];
        ram_sum += sup[Dim::kRamMb];
        auto& pinned = util[static_cast<std::size_t>(draws[i].gpu_index)];
        pinned.total_supplied[Dim::kGpuPct] += sup[Dim::kGpuPct];
        pinned.total_supplied[Dim::kGpuMemMb] += sup[Dim::kGpuMemMb];
      }
      for (std::size_t g = 0; g < ngpus; ++g) {
        util[g].total_supplied[Dim::kCpuPct] = cpu_sum;
        util[g].total_supplied[Dim::kRamMb] = ram_sum;
      }
      for (std::size_t g = 0; g < ngpus; ++g) {
        UtilizationPoint& up = util[g];
        for (std::size_t d = 0; d < kNumDims; ++d) {
          up.max_dim_fraction = std::max(
              up.max_dim_fraction, up.total_supplied.at(d) / cap.at(d));
        }
        obs_util_[srv.id().value][g].set(up.max_dim_fraction);
        if (trace_on) {
          obs::trace().add_counter(
              trace_pid(srv.id()), gpu_util_names_[g], t,
              {{"gpu_pct", up.total_supplied.gpu()},
               {"cpu_pct", up.total_supplied.cpu()},
               {"max_dim_pct", 100.0 * up.max_dim_fraction}});
        }
        if (record_utilization_) {
          util_log_.push_back(up);
        }
      }
    }

    // Advance sessions and record telemetry.
    for (std::size_t i = 0; i < live.size(); ++i) {
      ActiveSession& as = *live[i];
      telemetry::MetricSample s;
      s.t = t;
      s.usage = supplies[i].supplied;
      // Measurement noise: one normal per dimension, in dimension order.
      // Noise-free configs draw nothing, which is part of the platform's
      // RNG stream.
      if (cfg_.measurement_noise_rel > 0.0) {
        obs::StageScope rng_scope(prof_rng_);
        for (std::size_t d = 0; d < kNumDims; ++d) {
          const double noise = rng_.normal(0.0, cfg_.measurement_noise_rel);
          s.usage.at(d) = std::max(0.0, s.usage.at(d) * (1.0 + noise));
        }
      }
      s.true_stage_type = as.session->stage_type();
      s.true_loading =
          as.session->stage_kind() == game::StageKind::kLoading;
      s.true_cluster = as.session->current_cluster();
      if (trace_on) {
        roll_stage_span(as, draws[i].draw.sid,
                        stage_key(s.true_loading, s.true_stage_type), t);
      }
      const ResourceVector& demand_before = draws[i].draw.demand;
      {
        obs::StageScope kernel_scope(prof_kernels_);
        as.session->tick(t, supplies[i].supplied);
      }
      s.fps = as.session->last_fps();
      as.samples.add(s);

      // §II-A streaming pipeline: interaction latency on rendering ticks.
      if (s.fps > 0.0) {
        const double cpu_sat =
            demand_before[Dim::kCpuPct] > 0.0
                ? std::min(1.0, supplies[i].supplied[Dim::kCpuPct] /
                                    demand_before[Dim::kCpuPct])
                : 1.0;
        double lat = 0.0;
        {
          obs::StageScope rng_scope(prof_rng_);
          lat = streaming_.latency_ms(s.fps, cpu_sat, rng_);
        }
        as.latency_ms.add(lat);
        if (lat > streaming_.config().latency_budget_ms) {
          as.latency_violation_ms += cfg_.tick_ms;
        }
      }
    }
  }

  // §V-B1 harvest accounting: integrate unallocated capacity. Walks the
  // hosted() table per device in sid order — the same visit order (and
  // therefore the same floating-point sums) as the sessions_on_gpu() scan
  // this replaced.
  if (record_harvest_) {
    const double dt_s = ms_to_sec(cfg_.tick_ms);
    for (const auto& srv : servers_) {
      double cpu_alloc = 0.0;
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        double gpu_alloc = 0.0;
        for (const auto& h : srv.hosted()) {
          if (h.placement.gpu_index != g) continue;
          gpu_alloc += h.placement.allocation[Dim::kGpuPct];
          cpu_alloc += h.placement.allocation[Dim::kCpuPct];
        }
        harvested_gpu_s_ +=
            std::max(0.0, srv.spec().gpu_capacity_pct - gpu_alloc) / 100.0 *
            dt_s;
      }
      harvested_cpu_s_ +=
          std::max(0.0, srv.spec().cpu_capacity_pct - cpu_alloc) / 100.0 *
          dt_s;
    }
  }

  // Reap finished sessions in ascending id order (the legacy map order):
  // collect from the slot table, then sort.
  auto& done = scratch_.done;
  done.clear();
  sessions_.for_each([&](SessionId sid, ActiveSession& as) {
    if (as.session->finished()) done.push_back(sid);
  });
  std::sort(done.begin(), done.end());
  for (SessionId sid : done) finish_session(sid, t + cfg_.tick_ms);
}

void CloudPlatform::finish_session(SessionId sid, TimeMs end) {
  ActiveSession* asp = sessions_.find(sid);
  COCG_CHECK(asp != nullptr);
  ActiveSession& as = *asp;

  CompletedRun run;
  run.sid = sid;
  run.game = as.session->spec().name;
  run.script_idx = as.script_idx;
  run.start = as.session->start_time();
  run.end = end;
  run.duration_ms = end - as.session->start_time();
  run.wait_ms = as.session->start_time() - as.request_arrival;
  run.qos_violation_ms = as.session->qos_violation_ms();
  run.loading_extension_ms = as.session->loading_extension_ms();
  run.region = as.meta.region;
  run.profile = as.meta.profile;
  run.expected_session_ms = as.meta.expected_session_ms;
  run.mean_fps_ratio = as.session->mean_fps_ratio();
  run.mean_fps = as.session->mean_fps();
  if (!as.latency_ms.empty()) {
    run.mean_latency_ms = as.latency_ms.mean();
    run.max_latency_ms = as.latency_ms.max();
  }
  run.latency_violation_ms = as.latency_violation_ms;
  completed_.push_back(run);

  slo_.record(static_cast<std::size_t>(as.session->spec().category),
              run.mean_fps_ratio, run.mean_latency_ms);
  obs_completed_.add();
  obs::events().record(
      end, obs::SessionEvent{sid.value, run.game, /*started=*/false,
                             as.server.value, as.gpu_index});
  if (obs::trace_enabled() && as.span_stage != -2 && end > as.span_start) {
    obs::trace().add_complete(trace_pid(as.server),
                              static_cast<int>(sid.value),
                              span_name(as.span_stage), "stage",
                              as.span_start, end - as.span_start);
  }

  scheduler_->on_session_end(*this, sid);
  server_mut(as.server).remove(sid);

  // Credit the closed-loop source that issued the session, if any.
  if (as.source >= 0) {
    --sources_[static_cast<std::size_t>(as.source)].outstanding;
  }
  sessions_.erase(sid);
}

void CloudPlatform::control_tick() {
  replenish_sources();
  try_admit_queue();
  scheduler_->control(*this);
  obs_control_ticks_.add();
  obs_queue_depth_.set(static_cast<double>(queue_.size()));
  obs_running_.set(static_cast<double>(sessions_.size()));

  // Perfetto stage-cost counter track: one stacked series per stage on
  // the scheduler pid, emitted as per-control-period deltas so the track
  // reads as "ms of stage work per 5 s of sim time".
  if (obs::trace_enabled() && obs::profiling_enabled()) {
    if (!stage_track_named_) {
      obs::trace().set_process_name(0, "scheduler/profiler");
      stage_track_named_ = true;
    }
    const obs::StageProfile cur = prof_domain_->profile();
    obs::TraceBuilder::NumberArgs series;
    series.reserve(obs::kNumStages);
    for (std::size_t i = 0; i < obs::kNumStages; ++i) {
      const double delta_ms =
          static_cast<double>(cur[i].total_ns -
                              prev_stage_profile_[i].total_ns) /
          1e6;
      series.emplace_back(obs::stage_name(i), delta_ms);
    }
    obs::trace().add_counter(0, "stage costs (ms)", engine_.now(),
                             std::move(series));
    prev_stage_profile_ = cur;
  }
}

void CloudPlatform::schedule_request(const game::GameSpec* spec,
                                     std::size_t script_idx,
                                     std::uint64_t player_id, TimeMs at) {
  schedule_request(spec, script_idx, player_id, at, RequestMeta{});
}

void CloudPlatform::schedule_request(const game::GameSpec* spec,
                                     std::size_t script_idx,
                                     std::uint64_t player_id, TimeMs at,
                                     const RequestMeta& meta) {
  COCG_EXPECTS(spec != nullptr);
  COCG_EXPECTS(script_idx < spec->scripts.size());
  engine_.schedule_at(at, [this, spec, script_idx, player_id, meta] {
    submit(spec, script_idx, player_id, meta);
  });
}

void CloudPlatform::run(DurationMs duration_ms) {
  begin(duration_ms);
  advance_until(horizon_);
  finish();
}

void CloudPlatform::begin(DurationMs duration_ms) {
  COCG_EXPECTS(duration_ms > 0);
  COCG_EXPECTS_MSG(!hw_task_.active(), "begin() while already running");
  horizon_ = engine_.now() + duration_ms;

  if (record_utilization_ && util_log_.empty()) {
    // One point per GPU view per tick, capped to keep the speculative
    // reservation sane for very long horizons.
    std::size_t views = 0;
    for (const auto& srv : servers_) {
      views += static_cast<std::size_t>(srv.spec().num_gpus);
    }
    const auto ticks = static_cast<std::size_t>(duration_ms / cfg_.tick_ms);
    util_log_.reserve(std::min(views * ticks, kMaxSpeculativeReserve));
  }

  replenish_sources();
  try_admit_queue();

  hw_task_ = engine_.schedule_periodic(
      cfg_.tick_ms, cfg_.tick_ms, [this](TimeMs t) {
        hardware_tick();
        return t < horizon_;
      });
  ctl_task_ = engine_.schedule_periodic(
      cfg_.control_period_ms, cfg_.control_period_ms, [this](TimeMs t) {
        control_tick();
        return t < horizon_;
      });
}

TimeMs CloudPlatform::advance_until(TimeMs t) { return engine_.run_until(t); }

void CloudPlatform::finish() {
  hw_task_.stop();
  ctl_task_.stop();
}

// --- PlatformView ---

TimeMs CloudPlatform::now() const { return engine_.now(); }

const hw::Server& CloudPlatform::server(ServerId id) const {
  COCG_EXPECTS(id.value < servers_.size());
  return servers_[id.value];
}

hw::Server& CloudPlatform::server_mut(ServerId id) {
  COCG_EXPECTS(id.value < servers_.size());
  return servers_[id.value];
}

std::vector<SessionId> CloudPlatform::session_ids() const {
  return sessions_.sorted_ids();
}

const CloudPlatform::ActiveSession& CloudPlatform::active(
    SessionId sid) const {
  const ActiveSession* as = sessions_.find(sid);
  COCG_EXPECTS_MSG(as != nullptr, "unknown session");
  return *as;
}

SessionInfo CloudPlatform::session_info(SessionId sid) const {
  const auto& as = active(sid);
  SessionInfo info;
  info.id = sid;
  info.spec = &as.session->spec();
  info.script_idx = as.script_idx;
  info.player_id = as.player_id;
  info.server = as.server;
  info.gpu_index = as.gpu_index;
  info.allocation = servers_[as.server.value].placement(sid).allocation;
  info.start_time = as.session->start_time();
  return info;
}

const telemetry::SampleWindow& CloudPlatform::session_samples(
    SessionId sid) const {
  return active(sid).samples;
}

bool CloudPlatform::reallocate(SessionId sid, const ResourceVector& allocation,
                               bool allow_oversubscribe) {
  ActiveSession* as = sessions_.find(sid);
  if (as == nullptr) return false;
  return server_mut(as->server).reallocate(sid, allocation,
                                           allow_oversubscribe);
}

void CloudPlatform::hold_loading(SessionId sid, bool hold) {
  ActiveSession* as = sessions_.find(sid);
  if (as == nullptr) return;
  as->session->set_loading_hold(hold);
}

const game::GameSession& CloudPlatform::session_truth(SessionId sid) const {
  return *active(sid).session;
}

std::map<std::string, GameStats> CloudPlatform::game_stats() const {
  std::map<std::string, GameStats> out;
  std::map<std::string, double> ratio_sum, wait_sum;
  for (const auto& run : completed_) {
    auto& gs = out[run.game];
    ++gs.completed;
    gs.total_duration_s += ms_to_sec(run.duration_ms);
    gs.qos_violation_s += ms_to_sec(run.qos_violation_ms);
    ratio_sum[run.game] += run.mean_fps_ratio;
    wait_sum[run.game] += ms_to_sec(run.wait_ms);
  }
  for (auto& [name, gs] : out) {
    gs.mean_fps_ratio = ratio_sum[name] / std::max(1, gs.completed);
    gs.mean_wait_s = wait_sum[name] / std::max(1, gs.completed);
  }
  return out;
}

double CloudPlatform::throughput() const {
  // T = Σ_i N_i · S̄_i = total completed game-seconds (Eq. 2).
  double total = 0.0;
  for (const auto& run : completed_) total += ms_to_sec(run.duration_ms);
  return total;
}

}  // namespace cocg::platform
