// Metrics registry — named counters, gauges and fixed-bucket histograms
// with cheap hot-path recording.
//
// Design rules (this is the substrate perf PRs measure themselves against):
//  * handles are resolved ONCE (map lookup at registration); recording is a
//    branch on the global enable flag plus a pointer write — safe to leave
//    in event-loop and per-tick code;
//  * cells live for the registry's lifetime and are never invalidated —
//    `reset_values()` zeroes them in place so long-lived components keep
//    their handles across experiments;
//  * registering the same name twice returns the same cell (handle reuse),
//    so per-game metrics resolved by independent monitors aggregate;
//  * recording is NOT thread-safe (the simulator is single-threaded by
//    design); registration takes a map lookup and may allocate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cocg::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Global observability switch. Off by default: every record call reduces
/// to one inlined relaxed load + branch (bench_fig12 proves this is below
/// the noise floor of the 5-second loop).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

namespace detail {

struct CounterCell {
  std::uint64_t value = 0;
};

struct GaugeCell {
  double value = 0.0;
  std::uint64_t updates = 0;
};

struct HistogramCell {
  std::vector<double> edges;            ///< ascending bucket upper bounds
  std::vector<std::uint64_t> buckets;   ///< edges.size() + 1 (last: overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
};

}  // namespace detail

/// Monotonic counter handle.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) const {
    if (cell_ == nullptr || !enabled()) return;
    cell_->value += n;
  }

  std::uint64_t value() const { return cell_ != nullptr ? cell_->value : 0; }
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-value gauge handle.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_ == nullptr || !enabled()) return;
    cell_->value = v;
    ++cell_->updates;
  }

  double value() const { return cell_ != nullptr ? cell_->value : 0.0; }
  std::uint64_t updates() const {
    return cell_ != nullptr ? cell_->updates : 0;
  }
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. Bucket i counts values v with
/// edges[i-1] <= v < edges[i]; values >= the last edge land in the
/// overflow bucket (index edges.size()).
class Histogram {
 public:
  Histogram() = default;

  void record(double v) const;

  std::uint64_t count() const { return cell_ != nullptr ? cell_->count : 0; }
  double sum() const { return cell_ != nullptr ? cell_->sum : 0.0; }
  std::uint64_t bucket(std::size_t i) const;
  std::size_t num_buckets() const {
    return cell_ != nullptr ? cell_->buckets.size() : 0;
  }
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve (creating on first use) a handle by name. Repeated calls with
  /// the same name return a handle to the same cell.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `edges` must be strictly ascending and non-empty. If the name already
  /// exists, the original bucket layout wins and `edges` is ignored.
  Histogram histogram(const std::string& name, std::vector<double> edges);

  /// Zero every cell in place; handles stay valid.
  void reset_values();

  /// Fold another registry's values into this one: counters and histogram
  /// buckets/count/sum are summed, gauges take the other side's value when
  /// it was ever set (last-write-wins, with update counts summed). Missing
  /// instruments are created; histogram bucket layouts must agree for
  /// shared names. Used by the fleet layer to aggregate per-shard
  /// registries — merging shards in index order is deterministic.
  void merge_from(const MetricsRegistry& other);

  /// Snapshot accessors (registration-map lookup; for tests/exporters).
  bool has_counter(const std::string& name) const;
  bool has_gauge(const std::string& name) const;
  bool has_histogram(const std::string& name) const;
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  std::vector<std::string> counter_names() const;

  /// Total recordings since the last reset: counter increments are not
  /// recoverable (add(n) counts n), so this is counter values + gauge
  /// updates + histogram counts — the overhead bench uses it to estimate
  /// how many record calls one run performs.
  std::uint64_t total_recordings() const;

  /// Export everything as one JSON document:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  // Deques give cell-address stability across registrations.
  std::deque<detail::CounterCell> counter_cells_;
  std::deque<detail::GaugeCell> gauge_cells_;
  std::deque<detail::HistogramCell> histogram_cells_;
  std::map<std::string, detail::CounterCell*> counters_;
  std::map<std::string, detail::GaugeCell*> gauges_;
  std::map<std::string, detail::HistogramCell*> histograms_;
};

/// The current domain's registry (the process-global one unless a
/// ScopedDomain is installed on this thread — see obs/domain.h). Used by
/// the engine/platform/scheduler wiring.
MetricsRegistry& metrics();

}  // namespace cocg::obs
