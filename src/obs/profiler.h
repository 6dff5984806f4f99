// Stage profiler — self-profiling for the tick pipeline.
//
// Answers "where does a tick's time go?" with a fixed stage taxonomy
// covering the whole pipeline (RNG draws, resource kernels, contention
// resolve, event-queue management, predictor/distributor decisions, the
// regulator, the fleet router and the shard barrier). Per-stage wall time
// and call counts accumulate into cache-line-padded slots of the current
// obs::Domain's StageProfiler, so fleet shards profile independently on
// their own threads and merge deterministically at aggregation — the same
// story as the metrics registry.
//
// Design rules (mirrors obs/metrics.h; this layer gates future perf PRs):
//  * handles are resolved ONCE (StageTimer binds a profiler slot at
//    construction); opening a StageScope with profiling off is a relaxed
//    load + branch, with it on it is two steady-clock reads — cheap
//    enough to leave in the event loop and per-tick code;
//  * a StageScope never touches the heap, so the zero-allocation
//    guarantee of the simulation hot path holds with profiling enabled
//    (tests/platform/test_hotpath_alloc runs both ways);
//  * stages may nest (rng_draws fires inside the per-session advance that
//    resource_kernels brackets in spirit); reported times are inclusive
//    per stage, so the table is a cost breakdown, not a partition;
//  * the deterministic clock mode replaces wall time with a per-profiler
//    sequence number, making stage costs a pure function of the call
//    sequence — the fleet determinism tests use it to assert that
//    reports with profiling enabled are byte-identical at any thread
//    count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

#include "obs/metrics.h"

namespace cocg::obs {

/// The fixed stage taxonomy of the tick pipeline. Extend by appending
/// (exporters iterate [0, kNumStages) and name rows via stage_name).
enum class Stage : std::uint8_t {
  kRngDraws = 0,        ///< measurement noise + streaming jitter draws
  kResourceKernels,     ///< per-session demand/FPS advance (GameSession)
  kContentionResolve,   ///< hw::resolve_server per-view contention
  kEventQueue,          ///< event-queue pop/heap management
  kPredictorDecide,     ///< monitor collect/judge/predict + candidate outlook
  kDistributorDecide,   ///< Algorithm 1 view scan in admit()
  kRegulator,           ///< loading-steal resolve + reallocation
  kRouter,              ///< fleet per-arrival shard choice
  kShardBarrier,        ///< fleet epoch barrier (pool run + join)
  kExecutorSteal,       ///< steal runner: epochs run off their home worker
  kExecutorIdle,        ///< steal runner: worker wall time with no runnable job
  /// Never timed: kept so the exported stage list (and every consumer
  /// keyed on it) keeps its "fast_forward" row, which always reads 0.
  kFastForward,
};

inline constexpr std::size_t kNumStages = 12;

/// Stable snake_case stage name ("rng_draws", ...); used as the JSON key
/// in every export.
const char* stage_name(Stage s);
const char* stage_name(std::size_t index);

namespace detail {
inline std::atomic<bool> g_profiling{false};
}  // namespace detail

/// Profiling switch, layered on top of the master obs switch like
/// trace_enabled(): stage timing is opt-in because the enabled path costs
/// two clock reads per scope.
inline bool profiling_enabled() {
  return detail::g_profiling.load(std::memory_order_relaxed);
}
void set_profiling_enabled(bool on);

/// Clock source for every StageProfiler in the process. kWall reads
/// std::chrono::steady_clock; kDeterministic counts scope transitions per
/// profiler, which makes stage costs reproducible across runs and thread
/// counts (determinism tests only — the numbers are not nanoseconds).
enum class ProfilerClockMode { kWall, kDeterministic };
void set_profiler_clock_mode(ProfilerClockMode m);
ProfilerClockMode profiler_clock_mode();

/// One stage's accumulated cost.
struct StageStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

/// Plain-value snapshot of a whole profiler (merge/aggregation transport).
using StageProfile = std::array<StageStats, kNumStages>;

class StageTimer;

class StageProfiler {
 public:
  StageProfiler() = default;
  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  void reset();

  StageStats stats(Stage s) const {
    const auto& slot = slots_[static_cast<std::size_t>(s)];
    return StageStats{slot.calls, slot.total_ns};
  }
  StageProfile profile() const;
  std::uint64_t total_calls() const;
  std::uint64_t total_ns() const;

  /// Fold another profiler (or a snapshot) into this one. The fleet merges
  /// shard profilers in shard order — deterministic.
  void merge_from(const StageProfiler& other);
  void merge_from(const StageProfile& p);

  /// Register/accumulate the stage table into `reg` as counters
  /// `profiler.<stage>.calls` / `profiler.<stage>.total_ns` — the
  /// metrics-JSON export. Call once per run (counters are additive).
  void export_counters(MetricsRegistry& reg) const;

 private:
  friend class StageScope;
  friend class StageTimer;

  /// Cache-line padded so profilers of adjacent fleet shards never share
  /// a line even when Domains are allocated back to back.
  struct alignas(64) Slot {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };

  std::uint64_t now_ns();

  std::array<Slot, kNumStages> slots_{};
  std::uint64_t det_seq_ = 0;  ///< deterministic-clock sequence counter
};

/// Pre-resolved handle to one stage slot of one profiler (the Counter
/// idiom): resolve at construction, open StageScopes on the hot path.
class StageTimer {
 public:
  StageTimer() = default;
  StageTimer(StageProfiler& p, Stage s)
      : prof_(&p), slot_(&p.slots_[static_cast<std::size_t>(s)]) {}

  bool valid() const { return slot_ != nullptr; }

 private:
  friend class StageScope;
  StageProfiler* prof_ = nullptr;
  StageProfiler::Slot* slot_ = nullptr;
};

/// RAII stage scope. Disabled (or on an unresolved timer) it is a relaxed
/// load + branch; enabled it is two clock reads and two slot writes.
/// Never allocates.
class StageScope {
 public:
  explicit StageScope(const StageTimer& t) {
    if (t.slot_ == nullptr || !profiling_enabled()) return;
    prof_ = t.prof_;
    slot_ = t.slot_;
    start_ = prof_->now_ns();
  }
  ~StageScope() {
    if (slot_ == nullptr) return;
    slot_->total_ns += prof_->now_ns() - start_;
    ++slot_->calls;
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageProfiler* prof_ = nullptr;
  StageProfiler::Slot* slot_ = nullptr;
  std::uint64_t start_ = 0;
};

/// The current domain's profiler (process-global unless a ScopedDomain is
/// installed on this thread — see obs/domain.h).
StageProfiler& profiler();

/// Resolve a timer for `s` against the current domain's profiler.
StageTimer stage_timer(Stage s);

/// `"stage_costs":[{"stage":...,"calls":...,"total_ns":...},...]` — the
/// canonical JSON array shared by the fleet report and health snapshots.
/// Emits every stage (zero rows included) so the schema is stable.
void write_stage_costs_json(const StageProfile& p, std::ostream& os);

}  // namespace cocg::obs
