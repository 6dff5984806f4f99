// Discrete-event simulation engine: clock + event loop + periodic tasks.
//
// The whole cloud platform (sessions, telemetry samplers, the CoCG 5-second
// detection loop, arrival processes) runs as events on one Engine, so a full
// 2-hour co-location experiment executes in milliseconds of wall time and is
// fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/event_queue.h"

namespace cocg::sim {

class Engine;

/// Handle to a periodic task; stays valid across re-arms.
class PeriodicTask {
 public:
  PeriodicTask() = default;

  /// Stop the task: cancels the pending occurrence and prevents re-arming.
  /// Safe to call multiple times and on a default-constructed handle.
  void stop();

  bool active() const;

 private:
  friend class Engine;
  struct State;
  explicit PeriodicTask(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Starts at 0.
  TimeMs now() const { return now_; }

  /// Schedule `fn` `delay` ms from now (delay >= 0).
  EventHandle schedule_in(DurationMs delay, EventFn fn);

  /// Schedule `fn` at absolute time `at` (at >= now()).
  EventHandle schedule_at(TimeMs at, EventFn fn);

  /// Repeatedly run `fn` every `period` ms, starting `first_delay` from now.
  /// `fn` receives the firing time; returning false stops the task.
  using PeriodicFn = std::function<bool(TimeMs)>;
  PeriodicTask schedule_periodic(DurationMs first_delay, DurationMs period,
                                 PeriodicFn fn);

  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Run until the queue is empty or `until` is reached (events at exactly
  /// `until` still run). Returns the final simulated time.
  TimeMs run_until(TimeMs until);

  /// Run until the queue drains completely.
  TimeMs run_all();

  /// Request that run_* return after the current event completes.
  void stop() { stop_requested_ = true; }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t periodic_fires() const { return periodic_fires_; }

 private:
  friend class PeriodicTask;
  void count_dispatch();

  EventQueue queue_;
  TimeMs now_ = 0;
  bool stop_requested_ = false;
  std::uint64_t events_processed_ = 0;
  std::uint64_t periodic_fires_ = 0;

  // Event-loop metrics, resolved per engine against the obs domain active
  // at construction — fleet shards each run their own Engine under their
  // own domain, so these must not be process-wide statics.
  obs::Counter obs_dispatched_;
  obs::Counter obs_periodic_;
  obs::Gauge obs_queue_depth_;
  // Stage profiler scope around queue management (pop + heap fix-up);
  // deliberately NOT around the event callback, which the tick stages
  // account for themselves.
  obs::StageTimer prof_queue_;
};

}  // namespace cocg::sim
