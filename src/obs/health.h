// Fleet health snapshots — periodic JSONL for long-run monitoring.
//
// A health stream is the third observability output class: metrics are a
// final aggregate, traces are a full timeline, and health snapshots are a
// cheap fixed-schema heartbeat a dashboard (or `tail -f` + jq) can follow
// while a multi-hour fleet run is still in flight. One line per snapshot:
//
//   {"t_ms":300000,"arrivals":210,"router_decisions_per_s":0.7,
//    "shards":[{"shard":0,"servers":2,"running":5,"queued":1,
//               "pending_events":7,"routed":62,"mean_gpu_util":0.41},...],
//    "slo":[{"class":"moba","runs":10,"fps_attainment_pct":90,
//            "latency_attainment_pct":100},...],
//    "stage_costs":[{"stage":"rng_draws","calls":123,"total_ns":456},...]}
//
// `slo` and `stage_costs` reuse the exact array encoders the fleet report
// uses, so post-processing scripts share one schema. Stage costs are
// cumulative since run start (diff consecutive lines for rates); router
// decisions/s is over the interval since the previous snapshot; the shard
// rows are instantaneous. The writers are deterministic given the
// snapshot contents (doubles via json_number).
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/types.h"
#include "obs/profiler.h"
#include "obs/slo.h"

namespace cocg::obs {

/// Instantaneous per-shard occupancy (one row even for single-platform
/// runs, where shard is 0).
struct HealthShard {
  int shard = 0;
  std::size_t servers = 0;
  std::size_t running = 0;         ///< live sessions
  std::size_t queued = 0;          ///< admission queue depth
  std::size_t pending_events = 0;  ///< engine event-queue depth
  std::uint64_t routed = 0;        ///< arrivals routed here so far
  double mean_gpu_util = 0.0;      ///< mean max-dimension GPU fraction
};

/// Work-stealing executor counters (fleet steal runner). `present` gates
/// the field in the JSONL line — lockstep runs keep the legacy schema
/// byte-for-byte.
struct HealthExecutor {
  bool present = false;
  std::uint64_t jobs_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_ns = 0;
  std::uint64_t idle_waits = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t syncs = 0;
};

struct HealthSnapshot {
  TimeMs t = 0;
  std::uint64_t arrivals = 0;  ///< cumulative arrivals generated
  double router_decisions_per_s = 0.0;
  std::vector<HealthShard> shards;
  std::vector<SloAttainment> slo;
  StageProfile stage_costs{};  ///< cumulative; zeros when profiling is off
  HealthExecutor executor{};   ///< cumulative; emitted only when present
};

/// Append one JSONL line (newline included).
void write_health_snapshot(const HealthSnapshot& s, std::ostream& os);

/// Stream prologue: one JSONL line stating the heartbeat cadence, so a
/// consumer learns the interval without diffing the first two snapshots:
///   {"health_header":1,"interval_ms":30000}
/// Tools write it once before the first snapshot.
void write_health_header(DurationMs interval_ms, std::ostream& os);

}  // namespace cocg::obs
