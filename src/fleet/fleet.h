// Fleet — sharded multi-cluster simulation on top of CloudPlatform.
//
// A Fleet partitions N servers into K shards. Each shard is a complete,
// independent single-cluster simulation — its own sim::Engine,
// CloudPlatform, Scheduler instance and obs::Domain, seeded by a
// splitmix64 expansion of the fleet seed — so the paper's per-cluster
// semantics (§IV-C distributor/regulator, 5-second control loop) are
// untouched.
//
// Open-loop load arrives as traffic traces, Poisson load included
// (traffic::per_game_poisson): add_trace_arrivals binds each one and
// merges it, stably by time, into one arrival vector. Every epoch a
// Router assigns the arrivals in the epoch's window to shards, reading
// only the load snapshots taken at the last sync. Closed-loop sources
// (platform::SourceConfig) stay a single-platform feature and never
// cross the router. Each shard then advances one control period as a job
// on its own ShardExecutor queue (lock-free hot loop, shards share no
// mutable state). The runner policy decides where the coordinator syncs
// — drains the executor and publishes fresh snapshots: lockstep before
// every epoch, steal only where a load-based router needs them. Because
// every cross-shard input is fixed before a shard's epoch job is queued,
// aggregate results are bit-identical for any thread count and either
// runner (tests/fleet enforces this).
//
// Capture/replay: enable_capture() records every routed arrival plus the
// router's verdict into a traffic::TraceRecorder; add_trace_arrivals()
// feeds a Trace back in. A replay that keeps the recorded verdicts
// reproduces the captured run's report byte-for-byte at any thread count
// (tests/traffic enforces this); clearing them (`use_recorded_routing =
// false`) re-routes the identical arrival stream under a different
// policy — the apples-to-apples comparison mode.
//
// Aggregation merges per-shard CompletedRuns, Eq. 2 throughput, QoS
// stats, metrics registries (MetricsRegistry::merge_from), event logs
// (time-ordered JSONL with a `shard` field) and Perfetto traces (each
// shard a process group; see docs/fleet.md).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/executor.h"
#include "fleet/router.h"
#include "obs/domain.h"
#include "obs/health.h"
#include "platform/cloud_platform.h"
#include "schedcheck/session.h"
#include "traffic/source.h"
#include "traffic/trace.h"

namespace cocg::fleet {

struct FleetConfig {
  int shards = 1;
  int threads = 1;  ///< runner parallelism; never changes results, only speed
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  /// Sync policy of the ShardExecutor loop: kLockstep drains before every
  /// epoch (every shard meets at each boundary, the reference schedule);
  /// kSteal lets the coordinator route ahead whenever the routing policy
  /// has no load-snapshot dependency on the epoch — reports are
  /// byte-identical either way (tests/fleet enforces it).
  RunnerKind runner = RunnerKind::kLockstep;
  /// Seeds every shard, the router and — through traffic::per_game_poisson
  /// — the tools' and benches' generated Poisson load.
  std::uint64_t seed = 42;
  /// Per-shard platform template. `platform.seed` is ignored — each shard
  /// derives its own seed from `seed` — and `platform.control_period_ms`
  /// doubles as the fleet epoch length.
  platform::PlatformConfig platform;
};

/// Builds shard `i`'s scheduler. Called once per shard at construction,
/// under the shard's obs domain. The train-once pattern trains the suite
/// a single time, registers it in a core::ModelBank, and has each
/// factory call instantiate from the bank — every shard then shares the
/// same immutable trained bundles instead of retraining K times (see
/// tools/cocg_fleet.cpp and docs/models.md).
using SchedulerFactory =
    std::function<std::unique_ptr<platform::Scheduler>(int shard)>;

/// Fleet-level results merged across shards.
struct FleetReport {
  double throughput = 0.0;  ///< Σ shards' Eq. 2 throughput (game-seconds)
  std::size_t completed = 0;
  std::size_t arrivals = 0;  ///< arrivals routed (within the horizon)
  double qos_violation_s = 0.0;
  double mean_wait_s = 0.0;       ///< over completed runs
  double mean_fps_ratio = 0.0;    ///< over completed runs
  std::map<std::string, platform::GameStats> per_game;

  struct ShardRow {
    int shard = 0;
    std::size_t servers = 0;
    std::size_t routed = 0;  ///< arrivals the router sent here
    std::size_t completed = 0;
    double throughput = 0.0;
    std::size_t queued_end = 0;
    std::size_t running_end = 0;
  };
  std::vector<ShardRow> shards;

  /// Per-region traffic accounting (row order = RegionTable order, so
  /// index 0 is always "global"). `routed` counts router decisions;
  /// `completed`/`mean_fps_ratio` come from the finished runs that
  /// carried the region through RequestMeta.
  struct RegionRow {
    std::string region;
    std::size_t routed = 0;
    std::size_t completed = 0;
    double mean_fps_ratio = 0.0;
  };
  std::vector<RegionRow> regions;

  /// Per-class SLO attainment over all shards' completed runs (always
  /// populated — the tracker records independently of the obs switch).
  std::vector<obs::SloAttainment> slo;
  /// Merged stage-profiler table (coordinator + shards); all zeros unless
  /// obs::set_profiling_enabled(true) during the run.
  obs::StageProfile stage_costs{};
};

/// Canonical JSON encoding of a FleetReport: fixed key order, doubles at
/// max_digits10 — two reports serialize to the same bytes iff they are
/// equal. The determinism tests compare thread counts against each other,
/// and a shared ModelBank against a factory that retrains in every shard,
/// as strings of this encoding.
void write_report_json(const FleetReport& rep, std::ostream& os);
std::string report_json(const FleetReport& rep);

/// Pid stride between shards in the merged Perfetto trace: shard i's
/// server pids render as i*stride + original pid.
inline constexpr int kShardPidStride = 100000;

class Fleet {
 public:
  Fleet(FleetConfig cfg, const SchedulerFactory& make_scheduler);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const FleetConfig& config() const { return cfg_; }

  /// Add a server to the fleet; servers are partitioned round-robin
  /// across shards. Returns the shard it landed on.
  int add_server(const hw::ServerSpec& spec);
  /// Targeted placement (heterogeneous / skewed fleets).
  void add_server_to_shard(int shard, const hw::ServerSpec& spec);

  /// Feed a trace's arrivals into the run — the fleet's one arrival
  /// entry point. Games are bound against `specs` by name
  /// (traffic::BindError on mismatch or out-of-order timestamps); region
  /// names are interned into regions() ("global" is index 0). The
  /// arrivals merge into those already added stably by time, so ties
  /// keep registration order. With `use_recorded_routing` the captured
  /// router verdicts are honored and the router is bypassed for those
  /// arrivals; without it the verdicts are dropped here and the
  /// configured policy routes the stream. Epoch windows are (t0, t1],
  /// the first one also owning t == 0. Returns the number of arrivals
  /// added. Call before run().
  std::size_t add_trace_arrivals(const traffic::Trace& trace,
                                 const std::vector<const game::GameSpec*>& specs,
                                 bool use_recorded_routing);

  /// Capture every routed arrival (plus the router verdict) into
  /// `recorder`, which must outlive run(). Pass nullptr to disable.
  void enable_capture(traffic::TraceRecorder* recorder);

  /// Region name table shared by traces, capture and the report.
  const traffic::RegionTable& regions() const { return regions_; }

  /// Stream health snapshots (obs/health.h JSONL) to `os` during run():
  /// one line per `period_ms` of simulated time, written at a sync on the
  /// epoch boundary that reaches the due time (period 0 = every epoch). The
  /// stream must outlive run(); pass nullptr to disable.
  void enable_health_stream(std::ostream* os, DurationMs period_ms = 0);

  /// Attach a schedcheck record/replay session (src/schedcheck). The
  /// session must outlive run() and already be in record or replay mode;
  /// stream 0 receives coordinator decisions (router choice, executor
  /// sync), stream i+1 shard i's (admission, migration, regulator).
  /// Null (the default) leaves every decision point on its one-branch
  /// disabled fast path. Call before run().
  void set_schedule_session(schedcheck::Session* session);

  /// Invoked at every sync (all shards quiescent at time `t`, load
  /// snapshots fresh; every epoch boundary under lockstep) and once after
  /// the final epoch — the schedcheck invariant suite hangs off this. A
  /// throwing hook aborts run() with the exception. Call before run().
  void set_barrier_hook(std::function<void(TimeMs)> hook);

  /// Run every shard for `duration_ms` of simulated time in epochs of one
  /// control period on the work-stealing ShardExecutor, syncing per the
  /// configured runner policy (identical results). One-shot.
  void run(DurationMs duration_ms);

  /// Steal-runner schedule diagnostics from the last run() (all zeros
  /// under lockstep). Wall-clock quantities — never part of the report.
  /// The executor's counters after the run, plus the fleet's drains.
  struct ExecutorStats : ShardExecutor::Counters {
    std::uint64_t syncs = 0;  ///< forced drains (load-dependent routing/health)
  };
  const ExecutorStats& executor_stats() const { return exec_stats_; }

  // --- per-shard access (read-only after run) ---
  const platform::CloudPlatform& shard(int i) const;
  obs::Domain& shard_domain(int i);
  const std::vector<ShardLoad>& loads() const { return loads_; }
  std::size_t arrivals_generated() const { return arrivals_; }
  std::size_t routed_to(int i) const;

  // --- aggregation ---
  FleetReport report() const;
  /// Coordinator (router + barrier) + every shard's stage profiler,
  /// merged in shard order.
  obs::StageProfile merged_stage_profile() const;
  /// Every shard's SLO tracker merged (identical class tables — all
  /// shards are built from one platform config).
  std::vector<obs::SloAttainment> merged_slo_attainment() const;
  /// Fold every shard's metrics registry into `out`, in shard order, then
  /// add the merged stage table as profiler.* counters when profiling is
  /// on.
  void merge_metrics(obs::MetricsRegistry& out) const;
  /// All shards' decision events, time-ordered (ties: shard order), one
  /// JSONL object per line with a leading "shard" field.
  void write_merged_events_jsonl(std::ostream& os) const;
  std::string merged_events_jsonl() const;
  /// One Chrome/Perfetto trace with each shard as a process group.
  void write_merged_trace(std::ostream& os) const;

 private:
  struct Shard {
    std::unique_ptr<obs::Domain> domain;
    std::unique_ptr<platform::CloudPlatform> platform;
    std::size_t servers = 0;
    std::size_t routed = 0;
  };

  /// A routed arrival staged for injection at the start of its shard's
  /// epoch job: the request is scheduled onto the shard's event queue by
  /// the worker that owns the shard for that epoch, so engine state stays
  /// thread-confined.
  struct StagedRequest {
    const game::GameSpec* spec = nullptr;
    std::size_t script_idx = 0;
    std::uint64_t player_id = 0;
    TimeMs at = 0;
    platform::RequestMeta meta;
  };

  void refresh_loads();
  /// Route arrivals_in_[next_arrival_, end), staging each request in
  /// staged_ for injection inside its shard's next epoch job.
  void route_epoch(std::size_t end);
  /// Write one health line at `t` and advance the next due time.
  void write_health_snapshot_now(TimeMs t);

  FleetConfig cfg_;
  std::vector<Shard> shards_;
  std::vector<ShardLoad> loads_;
  Router router_;
  traffic::RegionTable regions_;
  /// Every added arrival, time-ordered (ties: registration order), and
  /// the cursor past the last one routed.
  std::vector<traffic::Arrival> arrivals_in_;
  std::size_t next_arrival_ = 0;
  traffic::TraceRecorder* recorder_ = nullptr;
  /// Routed-arrival staging buffers, one per shard (per-epoch scratch).
  std::vector<std::vector<StagedRequest>> staged_;
  ExecutorStats exec_stats_;
  std::vector<std::size_t> region_routed_;
  std::size_t arrivals_ = 0;
  std::size_t next_server_shard_ = 0;
  bool ran_ = false;

  /// Coordinator-side stage profiler (router + shard barrier). Owned by
  /// the fleet — NOT a domain profiler — so repeated fleet runs in one
  /// process stay independent (the determinism tests rely on this).
  obs::StageProfiler coord_prof_;
  obs::StageTimer prof_router_;
  obs::StageTimer prof_barrier_;

  std::ostream* health_os_ = nullptr;
  DurationMs health_period_ms_ = 0;
  TimeMs health_next_due_ = 0;
  TimeMs health_prev_t_ = 0;
  std::size_t health_prev_arrivals_ = 0;

  /// schedcheck wiring (all null/empty unless explicitly attached).
  schedcheck::Session* sched_session_ = nullptr;
  std::function<void(TimeMs)> barrier_hook_;
  TimeMs sched_now_ = 0;  ///< coordinator-stream clock (epoch start)
  /// Live executor during a steal run() only — lets the health heartbeat
  /// export mid-run executor counters at sync points.
  const ShardExecutor* live_exec_ = nullptr;
};

/// Extended canonical report: the base encoding plus a trailing
/// `"executor"` object (wall-clock schedule diagnostics). Wall-clock
/// numbers are not deterministic, so this variant is for operator-facing
/// outputs; determinism tests keep using the 2-argument form. Pass
/// all-zero stats (a lockstep run) to get a stable executor object.
void write_report_json(const FleetReport& rep, std::ostream& os,
                       const Fleet::ExecutorStats& exec);

}  // namespace cocg::fleet
