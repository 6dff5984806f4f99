// CloudPlatform: the GamingAnywhere-like cloud game service (§II-A),
// simulated end to end on a discrete-event engine.
//
// Responsibilities:
//  * host servers and sessions, resolve hardware contention each second;
//  * run closed-loop request sources and the admission queue;
//  * drive the plugged-in Scheduler (admission + 5-second control loop);
//  * record per-session telemetry and platform-level utilization;
//  * account completed runs, throughput T = Σ N_i·S_i (Eq. 2) and QoS.
//
// Hot-path layout (see docs/performance.md): sessions live in a dense
// SessionTable, per-tick buffers live in a reusable TickScratch arena, and
// all trace/counter name strings are interned up front — hardware_tick()
// performs zero heap allocation at steady state.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "game/session.h"
#include "hw/contention.h"
#include "hw/server.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "platform/request.h"
#include "platform/scheduler.h"
#include "platform/session_table.h"
#include "platform/streaming.h"
#include "platform/view.h"
#include "sim/engine.h"
#include "telemetry/sample_window.h"

namespace cocg::platform {

struct PlatformConfig {
  DurationMs tick_ms = 1000;          ///< hardware/session advance cadence
  DurationMs control_period_ms = 5000; ///< scheduler control cadence (§IV-B)
  double measurement_noise_rel = 0.02; ///< probe noise on recorded samples
  game::SessionConfig session;
  StreamingConfig streaming;           ///< §II-A pipeline latency model
  std::uint64_t seed = 42;
};

/// The SLO class table every platform records against, one class per
/// game::GameCategory in enum order. Targets follow the delay-sensitivity
/// ladder ("Games Are Not Equal"): MOBAs are the tightest, web-category
/// platformers the most tolerant; the latency targets bracket the 100 ms
/// streaming budget.
std::vector<obs::SloClassConfig> default_slo_classes();

/// One finished play-through.
struct CompletedRun {
  SessionId sid;
  std::string game;
  std::size_t script_idx = 0;
  TimeMs start = 0;
  TimeMs end = 0;
  DurationMs duration_ms = 0;
  DurationMs wait_ms = 0;  ///< request arrival → admission
  DurationMs qos_violation_ms = 0;
  DurationMs loading_extension_ms = 0;
  /// Traffic metadata carried through from the arrival (request.h).
  std::uint32_t region = 0;
  std::uint8_t profile = 1;
  DurationMs expected_session_ms = 0;
  double mean_fps_ratio = 1.0;
  double mean_fps = 0.0;
  /// §II-A interaction latency over execution ticks.
  double mean_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  DurationMs latency_violation_ms = 0;  ///< ticks over the latency budget
};

/// Aggregate per game (Eq. 2 inputs).
struct GameStats {
  int completed = 0;
  double total_duration_s = 0.0;   ///< Σ S_i over completed runs
  double mean_fps_ratio = 0.0;     ///< averaged over completed runs
  double qos_violation_s = 0.0;
  double mean_wait_s = 0.0;        ///< request arrival → admission
};

/// Per-tick utilization snapshot of one GPU view (for Fig. 9-style plots).
struct UtilizationPoint {
  TimeMs t = 0;
  ServerId server;
  int gpu_index = 0;
  ResourceVector total_supplied;
  double max_dim_fraction = 0.0;  ///< max over dims of supplied/capacity
};

class CloudPlatform final : public PlatformView {
 public:
  CloudPlatform(PlatformConfig cfg, std::unique_ptr<Scheduler> scheduler);
  ~CloudPlatform() override;

  CloudPlatform(const CloudPlatform&) = delete;
  CloudPlatform& operator=(const CloudPlatform&) = delete;

  /// Add a server before running. Returns its id.
  ServerId add_server(const hw::ServerSpec& spec);

  /// Register a closed-loop request source.
  void add_source(const SourceConfig& source);

  /// Submit a one-shot request (used by targeted experiments).
  RequestId submit(const game::GameSpec* spec, std::size_t script_idx,
                   std::uint64_t player_id);
  /// Metadata-carrying variant: region/profile/expected-length ride along
  /// into the session and its CompletedRun.
  RequestId submit(const game::GameSpec* spec, std::size_t script_idx,
                   std::uint64_t player_id, const RequestMeta& meta);

  /// Observe every request the instant it joins the admission queue
  /// (closed-loop replenish, submit() and scheduled injections alike).
  /// The capture path hangs a traffic recorder off this; null disables.
  /// The hook must not reenter the platform.
  using ArrivalHook = std::function<void(const GameRequest&)>;
  void set_arrival_hook(ArrivalHook hook) { arrival_hook_ = std::move(hook); }

  /// Record per-GPU utilization snapshots every tick (Fig. 9 benches).
  void enable_utilization_recording(bool on) { record_utilization_ = on; }

  /// §V-B1: capacity not allocated to latency-critical games "can be
  /// allocated to tasks with low latency-critical tasks such as machine
  /// learning and graph computing". When enabled, the platform integrates
  /// the unallocated capacity every tick — the resource pool a best-effort
  /// co-runner could harvest.
  void enable_harvest_accounting(bool on) { record_harvest_ = on; }
  double harvested_gpu_seconds() const { return harvested_gpu_s_; }
  double harvested_cpu_seconds() const { return harvested_cpu_s_; }

  /// Schedule a one-shot request submission at absolute sim time `at`
  /// (>= now()). The fleet router injects routed open-loop arrivals this
  /// way; the request joins the admission queue when the event fires.
  void schedule_request(const game::GameSpec* spec, std::size_t script_idx,
                        std::uint64_t player_id, TimeMs at);
  void schedule_request(const game::GameSpec* spec, std::size_t script_idx,
                        std::uint64_t player_id, TimeMs at,
                        const RequestMeta& meta);

  /// Run the experiment for `duration_ms` of simulated time.
  void run(DurationMs duration_ms);

  /// Split-phase variant of run() for epoch-wise execution (the fleet's
  /// per-shard epoch jobs): begin() arms the periodic tasks and performs
  /// the initial admission pass, advance_until() executes the event loop
  /// up to `t` (events at exactly `t` still run), finish() stops the
  /// periodic tasks. run() == begin(); advance_until(horizon); finish().
  void begin(DurationMs duration_ms);
  TimeMs advance_until(TimeMs t);
  void finish();
  TimeMs horizon() const { return horizon_; }

  // --- PlatformView ---
  TimeMs now() const override;
  const std::vector<ServerId>& server_ids() const override {
    return server_ids_;
  }
  const hw::Server& server(ServerId id) const override;
  std::vector<SessionId> session_ids() const override;
  SessionInfo session_info(SessionId sid) const override;
  const telemetry::SampleWindow& session_samples(
      SessionId sid) const override;
  bool reallocate(SessionId sid, const ResourceVector& allocation,
                  bool allow_oversubscribe = false) override;
  void hold_loading(SessionId sid, bool hold) override;

  /// Number of servers; ids are dense [0, n).
  std::size_t num_servers() const { return servers_.size(); }

  // --- results ---
  const std::vector<CompletedRun>& completed_runs() const {
    return completed_;
  }
  std::map<std::string, GameStats> game_stats() const;
  /// Throughput T = Σ_i N_i · S̄_i with S̄ in seconds (Eq. 2) — equals the
  /// total completed game-seconds delivered in the window.
  double throughput() const;
  const std::vector<UtilizationPoint>& utilization_log() const {
    return util_log_;
  }
  std::size_t queued_requests() const { return queue_.size(); }
  std::size_t running_sessions() const { return sessions_.size(); }
  /// Requests ever submitted / sessions ever admitted — the conservation
  /// ledger the schedcheck invariants balance against queued + running +
  /// completed counts.
  std::uint64_t submitted_requests() const { return next_request_ - 1; }
  std::uint64_t sessions_admitted() const { return next_session_ - 1; }
  /// SessionTable structural audit ("" when consistent) — schedcheck.
  std::string session_table_consistency() const {
    return sessions_.consistency_error();
  }
  /// Engine event-queue depth (health snapshots).
  std::size_t pending_events() const { return engine_.pending_events(); }
  Scheduler& scheduler() { return *scheduler_; }

  /// Per-class SLO attainment over completed runs (always on — see
  /// obs/slo.h). The fleet merges shard trackers via merge_from.
  const obs::SloTracker& slo_tracker() const { return slo_; }

  /// This platform's stage-profiler snapshot (the obs domain active at
  /// construction; zeros unless obs::set_profiling_enabled(true)).
  obs::StageProfile stage_profile() const { return prof_domain_->profile(); }

  /// Ground-truth access for evaluation harnesses (never for schedulers).
  const game::GameSession& session_truth(SessionId sid) const;

 private:
  struct ActiveSession {
    std::unique_ptr<game::GameSession> session;
    ServerId server;
    int gpu_index = 0;
    std::size_t script_idx = 0;
    std::uint64_t player_id = 0;
    RequestMeta meta;
    telemetry::SampleWindow samples;
    RunningStats latency_ms;
    DurationMs latency_violation_ms = 0;
    TimeMs request_arrival = 0;
    int source = -1;  ///< GameRequest::source, credited when it ends
    /// Open timeline span (ground-truth stage): -2 none, -1 loading,
    /// >= 0 the execution stage type.
    int span_stage = -2;
    TimeMs span_start = 0;
  };
  struct SourceState {
    SourceConfig cfg;
    int outstanding = 0;  ///< queued + running instances
  };
  /// Reusable per-tick buffers. Cleared (capacity retained) every tick, so
  /// steady-state hardware_tick() never touches the heap.
  struct TickScratch {
    std::vector<hw::PinnedDraw> draws;  ///< current server's draws
    std::vector<ActiveSession*> live;   ///< parallel to draws
    hw::ServerResolveScratch resolve;
    std::vector<UtilizationPoint> util; ///< one per GPU of current server
    std::vector<SessionId> done;        ///< finished sessions, pre-sort
  };

  void hardware_tick();
  void control_tick();
  /// Close (and re-open) a session's ground-truth stage span in the trace.
  void roll_stage_span(ActiveSession& as, SessionId sid, int stage_key,
                       TimeMs t);
  /// Interned span name for a stage key (-1 → "loading", k → "exec:k").
  const std::string& span_name(int key);
  void try_admit_queue();
  void finish_session(SessionId sid, TimeMs end);
  void replenish_sources();
  /// Queue a request issued by closed-loop source `source` (-1: none).
  RequestId enqueue(const game::GameSpec* spec, std::size_t script_idx,
                    std::uint64_t player_id, const RequestMeta& meta,
                    int source);
  hw::Server& server_mut(ServerId id);
  const ActiveSession& active(SessionId sid) const;

  PlatformConfig cfg_;
  std::unique_ptr<Scheduler> scheduler_;
  sim::Engine engine_;
  Rng rng_;
  StreamingModel streaming_;

  std::vector<hw::Server> servers_;
  std::vector<ServerId> server_ids_;  ///< servers_[i].id(), kept by add_server
  /// Dense slot store; deterministic id order is recovered where it matters
  /// (reaping, session_ids) via collect-and-sort.
  SessionTable<ActiveSession> sessions_;
  std::deque<GameRequest> queue_;
  std::vector<SourceState> sources_;
  ArrivalHook arrival_hook_;

  std::vector<CompletedRun> completed_;
  std::vector<UtilizationPoint> util_log_;
  bool record_utilization_ = false;
  bool record_harvest_ = false;
  double harvested_gpu_s_ = 0.0;
  double harvested_cpu_s_ = 0.0;

  std::uint64_t next_session_ = 1;
  std::uint64_t next_request_ = 1;
  TimeMs horizon_ = 0;
  sim::PeriodicTask hw_task_;
  sim::PeriodicTask ctl_task_;

  TickScratch scratch_;

  // Interned name strings (members, not function-local statics: fleet
  // shards run platforms on parallel threads).
  std::vector<std::string> gpu_util_names_;   ///< "gpu<g> util" per device
  std::vector<std::string> exec_span_names_;  ///< "exec:<k>" per stage key
  std::string loading_span_name_ = "loading";

  // Observability handles (pre-resolved; recording is ~free when the
  // global switch is off). Utilization gauges are per GPU view, resolved
  // in add_server, and replace the ad-hoc UtilizationPoint plumbing as the
  // metrics-facing export — util_log_ remains for the Fig. 9 accessors.
  obs::Counter obs_requests_;
  obs::Counter obs_admitted_;
  obs::Counter obs_completed_;
  obs::Counter obs_hw_ticks_;
  obs::Counter obs_session_ticks_;  ///< sessions advanced, summed per tick
  obs::Counter obs_control_ticks_;
  obs::Gauge obs_queue_depth_;
  obs::Gauge obs_running_;
  obs::Histogram obs_wait_ms_;
  std::vector<std::vector<obs::Gauge>> obs_util_;  ///< [server][gpu]
  // Stage profiler: per-tick scopes plus the domain profiler pointer the
  // Perfetto counter track and stage_profile() read.
  obs::StageTimer prof_rng_;
  obs::StageTimer prof_kernels_;
  obs::StageProfiler* prof_domain_ = nullptr;
  obs::StageProfile prev_stage_profile_{};  ///< last counter-track export
  bool stage_track_named_ = false;

  /// Per-class SLO attainment (always-on recording at session finish).
  obs::SloTracker slo_;
};

}  // namespace cocg::platform
