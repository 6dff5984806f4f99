// Chrome trace-event / Perfetto-compatible trace export.
//
// TraceBuilder collects trace events against *simulated* time and writes
// the JSON object format (https://ui.perfetto.dev loads it directly):
//  * one "process" per server, with one counter track per GPU view
//    (utilization) and one "thread" per session (stage spans);
//  * complete events ("ph":"X") for stage spans, counter events ("ph":"C")
//    for per-tick utilization, instant events ("ph":"i") for decisions.
// Sim milliseconds map to trace microseconds, so a 2-hour co-location run
// renders as a navigable 2-hour timeline.
//
// The builder itself is a dumb container — hot paths must check
// trace_enabled() before assembling args (the flag folds into the global
// observability switch).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace cocg::obs {

namespace detail {
inline std::atomic<bool> g_trace_on{false};
}  // namespace detail

/// Trace collection is opt-in on top of the master switch: counter tracks
/// at tick cadence are bulky, so tools enable it only when --trace-out is
/// given.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed) && enabled();
}
void set_trace_enabled(bool on);

class TraceBuilder {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;
  using NumberArgs = std::vector<std::pair<std::string, double>>;

  TraceBuilder() = default;
  TraceBuilder(const TraceBuilder&) = delete;
  TraceBuilder& operator=(const TraceBuilder&) = delete;

  /// Name the pid row ("process_name" metadata event).
  void set_process_name(int pid, const std::string& name);
  /// Name the (pid, tid) row ("thread_name" metadata event).
  void set_thread_name(int pid, int tid, const std::string& name);

  /// Span [start, start + dur] on one track ("ph":"X").
  void add_complete(int pid, int tid, const std::string& name,
                    const std::string& cat, TimeMs start, DurationMs dur,
                    Args args = {});

  /// Zero-duration marker ("ph":"i", thread scope).
  void add_instant(int pid, int tid, const std::string& name,
                   const std::string& cat, TimeMs t, Args args = {});

  /// Counter sample ("ph":"C"): one stacked-area track per (pid, name).
  void add_counter(int pid, const std::string& name, TimeMs t,
                   NumberArgs series);

  /// Copy every record and name from `other`, shifting its pids by
  /// `pid_offset` and prefixing its process names with `process_prefix`
  /// (unnamed pids carrying events get a synthesized "<prefix>pid<N>"
  /// name). The fleet exporter uses this to render each shard as its own
  /// process group in one merged timeline.
  void append(const TraceBuilder& other, int pid_offset,
              const std::string& process_prefix);

  std::size_t size() const { return events_.size(); }
  void clear();

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — valid Chrome trace
  /// JSON; metadata events are emitted before payload events.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  struct Record {
    char ph = 'X';
    int pid = 0;
    int tid = 0;
    TimeMs ts_ms = 0;
    DurationMs dur_ms = 0;
    std::string name;
    std::string cat;
    Args args;          ///< string-valued args
    NumberArgs nargs;   ///< number-valued args (counters)
  };
  void write_record(std::ostream& os, const Record& r) const;

  std::vector<Record> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
};

/// The current domain's trace builder (process-global unless a
/// ScopedDomain is installed on this thread — see obs/domain.h).
TraceBuilder& trace();

}  // namespace cocg::obs
