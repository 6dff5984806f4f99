#include "obs/profiler.h"

#include <atomic>
#include <chrono>

#include "obs/domain.h"
#include "obs/json.h"

namespace cocg::obs {

namespace {

std::atomic<ProfilerClockMode> g_clock_mode{ProfilerClockMode::kWall};

constexpr const char* kStageNames[kNumStages] = {
    "rng_draws",         "resource_kernels", "contention_resolve",
    "event_queue",       "predictor_decide", "distributor_decide",
    "regulator",         "router",           "shard_barrier",
    "executor_steal",    "executor_idle",    "fast_forward",
};

}  // namespace

const char* stage_name(Stage s) {
  return stage_name(static_cast<std::size_t>(s));
}

const char* stage_name(std::size_t index) {
  return index < kNumStages ? kStageNames[index] : "unknown";
}

void set_profiling_enabled(bool on) {
  detail::g_profiling.store(on, std::memory_order_relaxed);
}

void set_profiler_clock_mode(ProfilerClockMode m) {
  g_clock_mode.store(m, std::memory_order_relaxed);
}

ProfilerClockMode profiler_clock_mode() {
  return g_clock_mode.load(std::memory_order_relaxed);
}

std::uint64_t StageProfiler::now_ns() {
  if (g_clock_mode.load(std::memory_order_relaxed) ==
      ProfilerClockMode::kDeterministic) {
    // Per-profiler sequence: shard profilers see the same transition counts
    // regardless of how shards are packed onto runner threads.
    return ++det_seq_;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void StageProfiler::reset() {
  for (auto& s : slots_) {
    s.calls = 0;
    s.total_ns = 0;
  }
  det_seq_ = 0;
}

StageProfile StageProfiler::profile() const {
  StageProfile p{};
  for (std::size_t i = 0; i < kNumStages; ++i) {
    p[i].calls = slots_[i].calls;
    p[i].total_ns = slots_[i].total_ns;
  }
  return p;
}

std::uint64_t StageProfiler::total_calls() const {
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s.calls;
  return n;
}

std::uint64_t StageProfiler::total_ns() const {
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s.total_ns;
  return n;
}

void StageProfiler::merge_from(const StageProfiler& other) {
  merge_from(other.profile());
}

void StageProfiler::merge_from(const StageProfile& p) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    slots_[i].calls += p[i].calls;
    slots_[i].total_ns += p[i].total_ns;
  }
}

void StageProfiler::export_counters(MetricsRegistry& reg) const {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const std::string base = std::string("profiler.") + kStageNames[i];
    reg.counter(base + ".calls").add(slots_[i].calls);
    reg.counter(base + ".total_ns").add(slots_[i].total_ns);
  }
}

StageProfiler& profiler() { return current_domain().profiler; }

StageTimer stage_timer(Stage s) { return StageTimer(profiler(), s); }

void write_stage_costs_json(const StageProfile& p, std::ostream& os) {
  os << '[';
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (i) os << ',';
    os << "{\"stage\":\"" << kStageNames[i] << "\",\"calls\":" << p[i].calls
       << ",\"total_ns\":" << p[i].total_ns << '}';
  }
  os << ']';
}

}  // namespace cocg::obs
