#include "fleet/fleet.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace cocg::fleet {

namespace {

/// Stable per-role seed derivation: shard i uses salt i, the router a
/// reserved salt clear of any sane shard count.
std::uint64_t derived_seed(std::uint64_t fleet_seed, std::uint64_t salt) {
  SplitMix64 sm(fleet_seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
  return sm.next();
}

constexpr std::uint64_t kRouterSalt = (1u << 20) + 1;

// Schedule-stream clocks (raw function pointers — binding a stream must
// not allocate). The coordinator stamps records with the epoch start; a
// shard stream stamps them with its platform's simulated now().
TimeMs coord_clock(const void* arg) {
  return *static_cast<const TimeMs*>(arg);
}
TimeMs shard_clock(const void* arg) {
  return static_cast<const platform::CloudPlatform*>(arg)->now();
}

}  // namespace

Fleet::Fleet(FleetConfig cfg, const SchedulerFactory& make_scheduler)
    : cfg_(cfg),
      router_(cfg.policy, derived_seed(cfg.seed, kRouterSalt)),
      prof_router_(coord_prof_, obs::Stage::kRouter),
      prof_barrier_(coord_prof_, obs::Stage::kShardBarrier) {
  COCG_EXPECTS(cfg_.shards >= 1);
  COCG_EXPECTS(cfg_.threads >= 1);
  COCG_EXPECTS(make_scheduler != nullptr);
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int i = 0; i < cfg_.shards; ++i) {
    Shard s;
    s.domain = std::make_unique<obs::Domain>();
    // Construct scheduler + platform under the shard's domain so every
    // pre-resolved obs handle points into the shard's own registry.
    obs::ScopedDomain sd(*s.domain);
    auto pcfg = cfg_.platform;
    pcfg.seed = derived_seed(cfg_.seed, static_cast<std::uint64_t>(i));
    s.platform = std::make_unique<platform::CloudPlatform>(
        pcfg, make_scheduler(i));
    shards_.push_back(std::move(s));
  }
  refresh_loads();
}

Fleet::~Fleet() = default;

int Fleet::add_server(const hw::ServerSpec& spec) {
  const int shard = static_cast<int>(next_server_shard_++ %
                                     static_cast<std::size_t>(cfg_.shards));
  add_server_to_shard(shard, spec);
  return shard;
}

void Fleet::add_server_to_shard(int shard, const hw::ServerSpec& spec) {
  COCG_EXPECTS(shard >= 0 && shard < num_shards());
  auto& s = shards_[static_cast<std::size_t>(shard)];
  {
    obs::ScopedDomain sd(*s.domain);  // add_server resolves util gauges
    s.platform->add_server(spec);
  }
  ++s.servers;
  refresh_loads();  // keep pre-run snapshots (loads()) consistent
}

std::size_t Fleet::add_trace_arrivals(
    const traffic::Trace& trace,
    const std::vector<const game::GameSpec*>& specs,
    bool use_recorded_routing) {
  COCG_EXPECTS_MSG(!ran_, "add_trace_arrivals must precede run()");
  std::vector<traffic::Arrival> bound =
      traffic::bind_trace(trace, specs, regions_);
  if (!use_recorded_routing) {
    for (auto& a : bound) a.shard = -1;
  }
  // bind_trace guarantees time order, so one stable merge keeps the whole
  // vector time-ordered with ties in registration order.
  const auto mid =
      arrivals_in_.insert(arrivals_in_.end(), bound.begin(), bound.end());
  std::inplace_merge(arrivals_in_.begin(), mid, arrivals_in_.end(),
                     [](const traffic::Arrival& a, const traffic::Arrival& b) {
                       return a.at < b.at;
                     });
  return bound.size();
}

void Fleet::enable_capture(traffic::TraceRecorder* recorder) {
  recorder_ = recorder;
}

void Fleet::refresh_loads() {
  loads_.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& p = *shards_[i].platform;
    ShardLoad l;
    l.shard = static_cast<int>(i);
    l.servers = shards_[i].servers;
    l.running = p.running_sessions();
    l.queued = p.queued_requests();
    double util_sum = 0.0;
    std::size_t views = 0;
    for (std::size_t s = 0; s < p.num_servers(); ++s) {
      const auto& srv = p.server(ServerId{s});
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        util_sum += srv.utilization_on_gpu(g);
        ++views;
      }
    }
    l.gpu_views = views;
    l.mean_utilization =
        views > 0 ? util_sum / static_cast<double>(views) : 0.0;
    l.forward_cost =
        l.mean_utilization +
        static_cast<double>(l.queued) /
            static_cast<double>(std::max<std::size_t>(1, views));
    loads_[i] = l;
  }
}

void Fleet::route_epoch(std::size_t end) {
  for (; next_arrival_ < end; ++next_arrival_) {
    const traffic::Arrival& a = arrivals_in_[next_arrival_];
    int shard = 0;
    if (a.shard >= 0 && a.shard < num_shards()) {
      // Captured router verdict — honor it and bypass the router so a
      // replay reproduces the recorded run exactly. (A verdict from a
      // larger fleet than ours is meaningless; those arrivals fall
      // through to fresh routing.)
      shard = a.shard;
    } else {
      obs::StageScope route_scope(prof_router_);
      // Schedule point: the natural choice runs the real router (RNG
      // draws, in-place load accounting); a forced choice skips the
      // router entirely and applies the accounting explicitly, so replay
      // neither consumes router state nor double-counts load.
      bool forced = false;
      shard = schedcheck::decide_lazy(
          schedcheck::Point::kRouterChoice, num_shards(),
          [&] { return router_.route(loads_, a.region); }, &forced);
      if (forced) router_.account(loads_, shard);
    }
    platform::RequestMeta meta;
    meta.region = a.region;
    meta.profile = static_cast<std::uint8_t>(a.profile);
    meta.expected_session_ms = a.expected_session_ms;
    staged_[static_cast<std::size_t>(shard)].push_back(
        StagedRequest{a.spec, a.script_idx, a.player_id, a.at, meta});
    ++shards_[static_cast<std::size_t>(shard)].routed;
    ++arrivals_;
    if (a.region >= region_routed_.size()) {
      region_routed_.resize(a.region + 1, 0);
    }
    ++region_routed_[a.region];
    if (recorder_ != nullptr) recorder_->record(a, regions_, shard);
  }
}

void Fleet::enable_health_stream(std::ostream* os, DurationMs period_ms) {
  COCG_EXPECTS(period_ms >= 0);
  health_os_ = os;
  health_period_ms_ = period_ms;
}

void Fleet::set_schedule_session(schedcheck::Session* session) {
  COCG_EXPECTS_MSG(!ran_, "set_schedule_session must precede run()");
  if (session != nullptr) {
    COCG_EXPECTS_MSG(session->num_streams() == num_shards() + 1,
                     "schedule session stream count != shards + 1");
  }
  sched_session_ = session;
}

void Fleet::set_barrier_hook(std::function<void(TimeMs)> hook) {
  COCG_EXPECTS_MSG(!ran_, "set_barrier_hook must precede run()");
  barrier_hook_ = std::move(hook);
}

void Fleet::write_health_snapshot_now(TimeMs t) {
  obs::HealthSnapshot snap;
  snap.t = t;
  snap.arrivals = arrivals_;
  const double dt_s = ms_to_sec(t - health_prev_t_);
  snap.router_decisions_per_s =
      dt_s > 0.0
          ? static_cast<double>(arrivals_ - health_prev_arrivals_) / dt_s
          : 0.0;
  snap.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& p = *shards_[i].platform;
    obs::HealthShard row;
    row.shard = static_cast<int>(i);
    row.servers = shards_[i].servers;
    row.running = p.running_sessions();
    row.queued = p.queued_requests();
    row.pending_events = p.pending_events();
    row.routed = shards_[i].routed;
    row.mean_gpu_util = loads_[i].mean_utilization;
    snap.shards.push_back(row);
  }
  snap.slo = merged_slo_attainment();
  snap.stage_costs = merged_stage_profile();
  if (live_exec_ != nullptr) {
    // Steal runner mid-run: snapshots are written at sync points, where
    // drain() just made the counters quiescent. One lock acquisition.
    const auto c = live_exec_->snapshot();
    snap.executor.present = true;
    snap.executor.jobs_run = c.jobs_run;
    snap.executor.steals = c.steals;
    snap.executor.steal_ns = c.steal_ns;
    snap.executor.idle_waits = c.idle_waits;
    snap.executor.idle_ns = c.idle_ns;
    snap.executor.syncs = exec_stats_.syncs;
  }
  obs::write_health_snapshot(snap, *health_os_);
  health_prev_t_ = t;
  health_prev_arrivals_ = arrivals_;
  if (health_period_ms_ > 0) {
    while (health_next_due_ <= t) health_next_due_ += health_period_ms_;
  }
}

// One epoch loop for both runners. Each shard owns a FIFO of epoch jobs
// on the ShardExecutor, and the coordinator syncs — drains it, so every
// shard is exactly at time t — only where the runner policy asks:
//  * lockstep syncs before every epoch after the first, so every shard
//    meets at each boundary (the reference schedule);
//  * steal runs ahead. Round-robin routing and recorded-verdict replay
//    never read the load snapshots, so the coordinator routes whole epochs
//    ahead and a slow shard no longer stalls the rest; load-based policies
//    (ll/p2c/region) force a sync before any epoch that routes a fresh
//    arrival, so in the worst case the schedule degenerates to lockstep's;
//  * a due health snapshot forces a sync under either policy (snapshots
//    are defined with all shards at the boundary).
// Routed arrivals are injected inside the shard's epoch job, so engine
// state stays thread-confined: the job runs after the shard reached the
// window's start and schedules the same requests in the same order
// whatever the policy, thread count or worker.
void Fleet::run(DurationMs duration_ms) {
  COCG_EXPECTS(duration_ms > 0);
  COCG_EXPECTS_MSG(!ran_, "Fleet::run is one-shot");
  ran_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto& s = shards_[i];
    COCG_EXPECTS_MSG(s.platform->now() == 0, "fleet shards must start fresh");
    obs::ScopedDomain sd(*s.domain);
    // begin() can already admit closed-loop requests — keep those
    // admission decisions on the shard's stream.
    schedcheck::ScopedStream ss(sched_session_, static_cast<int>(i) + 1,
                                &shard_clock, s.platform.get());
    s.platform->begin(duration_ms);
  }
  refresh_loads();
  health_next_due_ = health_period_ms_;
  health_prev_t_ = 0;
  health_prev_arrivals_ = 0;

  const bool lockstep = cfg_.runner == RunnerKind::kLockstep;
  ShardExecutor exec(cfg_.threads, num_shards());
  exec_stats_ = ExecutorStats{};
  // Executor telemetry (stats, the health `executor` block, wall-mode
  // profiler rows) is run-ahead-only: lockstep outputs keep their schema.
  live_exec_ = lockstep ? nullptr : &exec;
  // The hook may throw (invariant violation aborts the run) — never leave
  // a dangling executor pointer behind.
  struct LiveExecReset {
    Fleet* fleet;
    ~LiveExecReset() { fleet->live_exec_ = nullptr; }
  } live_reset{this};
  staged_.assign(shards_.size(), {});
  const DurationMs epoch = cfg_.platform.control_period_ms;
  const bool loads_free = cfg_.policy == RouterPolicy::kRoundRobin;
  const auto sync_at = [&](TimeMs t, bool health_due) {
    {
      obs::StageScope barrier_scope(prof_barrier_);
      exec.drain();  // every shard is now exactly at time t
    }
    refresh_loads();
    if (barrier_hook_) barrier_hook_(t);
    if (health_due) write_health_snapshot_now(t);
  };
  {
    schedcheck::ScopedStream coord(sched_session_,
                                   schedcheck::Session::kCoordinatorStream,
                                   &coord_clock, &sched_now_);
    TimeMs t = 0;
    bool synced = true;  // loads_ reflect every shard at time t right now
    while (t < duration_ms) {
      const TimeMs t1 = std::min<TimeMs>(t + epoch, duration_ms);
      sched_now_ = t;
      // The window is (t, t1], and [0, t1] for the first epoch: earlier
      // windows routed everything up to t, and bind_trace rejects negative
      // times.
      std::size_t end = next_arrival_;
      while (end < arrivals_in_.size() && arrivals_in_[end].at <= t1) ++end;
      bool needs_loads = false;
      if (!loads_free) {
        for (std::size_t i = next_arrival_; i < end; ++i) {
          const int verdict = arrivals_in_[i].shard;
          if (!(verdict >= 0 && verdict < num_shards())) {
            needs_loads = true;  // fresh routing under a load-based policy
            break;
          }
        }
      }
      const bool health_due =
          health_os_ != nullptr && t > 0 && t >= health_next_due_;
      const bool natural_sync =
          (!synced && (lockstep || needs_loads)) || health_due;
      // Schedule point (run-ahead only): forcing 0 where the natural run
      // would drain routes this epoch on stale load snapshots (shard epoch
      // skew); forcing 1 inserts an extra rendezvous.
      const bool sync =
          lockstep ? natural_sync
                   : schedcheck::decide(schedcheck::Point::kExecutorSync, 2,
                                        natural_sync ? 1 : 0) != 0;
      if (sync) {
        if (!lockstep) ++exec_stats_.syncs;
        sync_at(t, health_due);
        synced = true;
      }
      route_epoch(end);
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& s = shards_[i];
        exec.submit(static_cast<int>(i),
                    [&s, t1, this, i, staged = std::move(staged_[i])] {
                      obs::ScopedDomain sd(*s.domain);
                      schedcheck::ScopedStream ss(sched_session_,
                                                  static_cast<int>(i) + 1,
                                                  &shard_clock,
                                                  s.platform.get());
                      for (const auto& r : staged) {
                        s.platform->schedule_request(r.spec, r.script_idx,
                                                     r.player_id, r.at,
                                                     r.meta);
                      }
                      s.platform->advance_until(t1);
                    });
        staged_[i].clear();
      }
      synced = false;
      t = t1;
    }
    sync_at(t, health_os_ != nullptr && t >= health_next_due_);
  }

  if (!lockstep) {
    static_cast<ShardExecutor::Counters&>(exec_stats_) = exec.snapshot();
    // Steals are wall-class schedule points: thread confinement means the
    // victim choice cannot affect results, so they are counted, never
    // recorded or forced (docs/schedcheck.md).
    if (sched_session_ != nullptr) {
      sched_session_->note_wall_points(exec_stats_.steals);
    }
    // Executor schedule costs feed the coordinator profiler in wall-clock
    // mode only: deterministic-mode stage costs must stay a pure function
    // of the call sequence (thread-count invariant), which wall-clock
    // steal/idle times are not.
    if (obs::profiling_enabled() &&
        obs::profiler_clock_mode() == obs::ProfilerClockMode::kWall) {
      obs::StageProfile p{};
      auto& steal_row =
          p[static_cast<std::size_t>(obs::Stage::kExecutorSteal)];
      steal_row.calls = exec_stats_.steals;
      steal_row.total_ns = exec_stats_.steal_ns;
      auto& idle_row = p[static_cast<std::size_t>(obs::Stage::kExecutorIdle)];
      idle_row.calls = exec_stats_.idle_waits;
      idle_row.total_ns = exec_stats_.idle_ns;
      coord_prof_.merge_from(p);
    }
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto& s = shards_[i];
    obs::ScopedDomain sd(*s.domain);
    schedcheck::ScopedStream ss(sched_session_, static_cast<int>(i) + 1,
                                &shard_clock, s.platform.get());
    s.platform->finish();
  }
}

const platform::CloudPlatform& Fleet::shard(int i) const {
  COCG_EXPECTS(i >= 0 && i < num_shards());
  return *shards_[static_cast<std::size_t>(i)].platform;
}

obs::Domain& Fleet::shard_domain(int i) {
  COCG_EXPECTS(i >= 0 && i < num_shards());
  return *shards_[static_cast<std::size_t>(i)].domain;
}

std::size_t Fleet::routed_to(int i) const {
  COCG_EXPECTS(i >= 0 && i < num_shards());
  return shards_[static_cast<std::size_t>(i)].routed;
}

FleetReport Fleet::report() const {
  FleetReport r;
  r.arrivals = arrivals_;
  double wait_sum_s = 0.0;
  double fps_sum = 0.0;
  std::map<std::string, double> ratio_sum, wait_sum_game;
  // Region rows in RegionTable order (index 0 = "global"), so the layout
  // is deterministic and identical across capture and replay.
  r.regions.resize(regions_.size());
  std::vector<double> region_fps(regions_.size(), 0.0);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    r.regions[i].region = regions_.name(static_cast<std::uint32_t>(i));
    r.regions[i].routed =
        i < region_routed_.size() ? region_routed_[i] : 0;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& p = *shards_[i].platform;
    FleetReport::ShardRow row;
    row.shard = static_cast<int>(i);
    row.servers = shards_[i].servers;
    row.routed = shards_[i].routed;
    row.completed = p.completed_runs().size();
    row.throughput = p.throughput();
    row.queued_end = p.queued_requests();
    row.running_end = p.running_sessions();
    r.shards.push_back(row);

    r.throughput += row.throughput;
    r.completed += row.completed;
    for (const auto& run : p.completed_runs()) {
      auto& gs = r.per_game[run.game];
      ++gs.completed;
      gs.total_duration_s += ms_to_sec(run.duration_ms);
      gs.qos_violation_s += ms_to_sec(run.qos_violation_ms);
      ratio_sum[run.game] += run.mean_fps_ratio;
      wait_sum_game[run.game] += ms_to_sec(run.wait_ms);
      r.qos_violation_s += ms_to_sec(run.qos_violation_ms);
      wait_sum_s += ms_to_sec(run.wait_ms);
      fps_sum += run.mean_fps_ratio;
      if (run.region < r.regions.size()) {
        ++r.regions[run.region].completed;
        region_fps[run.region] += run.mean_fps_ratio;
      }
    }
  }
  for (std::size_t i = 0; i < r.regions.size(); ++i) {
    if (r.regions[i].completed > 0) {
      r.regions[i].mean_fps_ratio =
          region_fps[i] / static_cast<double>(r.regions[i].completed);
    }
  }
  for (auto& [name, gs] : r.per_game) {
    gs.mean_fps_ratio = ratio_sum[name] / std::max(1, gs.completed);
    gs.mean_wait_s = wait_sum_game[name] / std::max(1, gs.completed);
  }
  if (r.completed > 0) {
    r.mean_wait_s = wait_sum_s / static_cast<double>(r.completed);
    r.mean_fps_ratio = fps_sum / static_cast<double>(r.completed);
  }
  r.slo = merged_slo_attainment();
  r.stage_costs = merged_stage_profile();
  return r;
}

obs::StageProfile Fleet::merged_stage_profile() const {
  obs::StageProfiler merged;
  merged.merge_from(coord_prof_);
  for (const auto& s : shards_) merged.merge_from(s.domain->profiler);
  return merged.profile();
}

std::vector<obs::SloAttainment> Fleet::merged_slo_attainment() const {
  obs::SloTracker merged;
  merged.configure(shards_.front().platform->slo_tracker().class_configs());
  for (const auto& s : shards_) merged.merge_from(s.platform->slo_tracker());
  return merged.attainment();
}

void Fleet::merge_metrics(obs::MetricsRegistry& out) const {
  for (const auto& s : shards_) out.merge_from(s.domain->metrics);
  if (obs::profiling_enabled()) {
    obs::StageProfiler merged;
    merged.merge_from(coord_prof_);
    for (const auto& s : shards_) merged.merge_from(s.domain->profiler);
    merged.export_counters(out);
  }
}

void Fleet::write_merged_events_jsonl(std::ostream& os) const {
  struct Line {
    TimeMs t = 0;
    std::string json;
  };
  std::vector<Line> all;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& log = shards_[i].domain->events;
    for (const auto& e : log.events()) {
      // Splice a leading "shard" field into the flat JSONL object.
      all.push_back(Line{e.t, "{\"shard\":" + std::to_string(i) + "," +
                                  obs::event_to_json(e).substr(1)});
    }
  }
  // Stable: input is shard-major and per-shard time-ordered, so equal
  // timestamps keep shard order — deterministic for any thread count.
  std::stable_sort(all.begin(), all.end(),
                   [](const Line& a, const Line& b) { return a.t < b.t; });
  for (const auto& l : all) os << l.json << '\n';
}

std::string Fleet::merged_events_jsonl() const {
  std::ostringstream os;
  write_merged_events_jsonl(os);
  return os.str();
}

void Fleet::write_merged_trace(std::ostream& os) const {
  obs::TraceBuilder merged;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    merged.append(shards_[i].domain->trace,
                  static_cast<int>(i) * kShardPidStride,
                  "shard" + std::to_string(i) + "/");
  }
  merged.write_json(os);
}

void write_report_json(const FleetReport& rep, std::ostream& os) {
  // Fixed key order and obs::json_number round-trip formatting: equal
  // reports → equal bytes, the property the determinism tests assert.
  os << "{\"throughput\":" << obs::json_number(rep.throughput)
     << ",\"completed\":" << rep.completed << ",\"arrivals\":" << rep.arrivals
     << ",\"qos_violation_s\":" << obs::json_number(rep.qos_violation_s)
     << ",\"mean_wait_s\":" << obs::json_number(rep.mean_wait_s)
     << ",\"mean_fps_ratio\":" << obs::json_number(rep.mean_fps_ratio)
     << ",\"per_game\":{";
  bool first = true;
  for (const auto& [name, gs] : rep.per_game) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::json_escape(name)
       << "\":{\"completed\":" << gs.completed << ",\"total_duration_s\":"
       << obs::json_number(gs.total_duration_s) << ",\"mean_fps_ratio\":"
       << obs::json_number(gs.mean_fps_ratio) << ",\"qos_violation_s\":"
       << obs::json_number(gs.qos_violation_s) << ",\"mean_wait_s\":"
       << obs::json_number(gs.mean_wait_s) << '}';
  }
  os << "},\"shards\":[";
  for (std::size_t i = 0; i < rep.shards.size(); ++i) {
    const auto& row = rep.shards[i];
    if (i != 0) os << ',';
    os << "{\"shard\":" << row.shard << ",\"servers\":" << row.servers
       << ",\"routed\":" << row.routed << ",\"completed\":" << row.completed
       << ",\"throughput\":" << obs::json_number(row.throughput)
       << ",\"queued_end\":" << row.queued_end
       << ",\"running_end\":" << row.running_end << '}';
  }
  os << "],\"regions\":[";
  for (std::size_t i = 0; i < rep.regions.size(); ++i) {
    const auto& row = rep.regions[i];
    if (i != 0) os << ',';
    os << "{\"region\":\"" << obs::json_escape(row.region)
       << "\",\"routed\":" << row.routed
       << ",\"completed\":" << row.completed << ",\"mean_fps_ratio\":"
       << obs::json_number(row.mean_fps_ratio) << '}';
  }
  os << "],\"slo\":";
  obs::SloTracker::write_attainment_json(rep.slo, os);
  os << ",\"stage_costs\":";
  obs::write_stage_costs_json(rep.stage_costs, os);
  os << "}\n";
}

std::string report_json(const FleetReport& rep) {
  std::ostringstream os;
  write_report_json(rep, os);
  return os.str();
}

void write_report_json(const FleetReport& rep, std::ostream& os,
                       const Fleet::ExecutorStats& exec) {
  // Base encoding minus the closing brace, then the executor object.
  std::ostringstream base;
  write_report_json(rep, base);
  std::string body = base.str();
  COCG_CHECK(body.size() >= 2 && body.compare(body.size() - 2, 2, "}\n") == 0);
  body.resize(body.size() - 2);
  os << body << ",\"executor\":{\"jobs_run\":" << exec.jobs_run
     << ",\"steals\":" << exec.steals << ",\"steal_ns\":" << exec.steal_ns
     << ",\"idle_waits\":" << exec.idle_waits
     << ",\"idle_ns\":" << exec.idle_ns << ",\"syncs\":" << exec.syncs
     << "}}\n";
}

}  // namespace cocg::fleet
