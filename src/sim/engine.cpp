#include "sim/engine.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace cocg::sim {

// Handles are resolved once per engine (against the obs domain active at
// construction); recording is a flag check + pointer write (the event
// loop is the hottest path in the system — see bench_fig12).
Engine::Engine()
    : obs_dispatched_(obs::metrics().counter("sim.events_dispatched")),
      obs_periodic_(obs::metrics().counter("sim.periodic_fires")),
      obs_queue_depth_(obs::metrics().gauge("sim.queue_depth")),
      prof_queue_(obs::stage_timer(obs::Stage::kEventQueue)) {}

struct PeriodicTask::State {
  Engine* engine = nullptr;
  Engine::PeriodicFn fn;
  DurationMs period = 0;
  EventHandle pending;
  bool stopped = false;
};

void PeriodicTask::stop() {
  if (!state_ || state_->stopped) return;
  state_->stopped = true;
  state_->engine->cancel(state_->pending);
}

bool PeriodicTask::active() const { return state_ && !state_->stopped; }

EventHandle Engine::schedule_in(DurationMs delay, EventFn fn) {
  COCG_EXPECTS(delay >= 0);
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventHandle Engine::schedule_at(TimeMs at, EventFn fn) {
  COCG_EXPECTS_MSG(at >= now_, "cannot schedule into the past");
  return queue_.schedule(at, std::move(fn));
}

PeriodicTask Engine::schedule_periodic(DurationMs first_delay,
                                       DurationMs period, PeriodicFn fn) {
  COCG_EXPECTS(first_delay >= 0);
  COCG_EXPECTS(period > 0);
  auto state = std::make_shared<PeriodicTask::State>();
  state->engine = this;
  state->fn = std::move(fn);
  state->period = period;

  // Recursive re-arm through a self-referencing lambda stored by value.
  struct Arm {
    static void arm(const std::shared_ptr<PeriodicTask::State>& st,
                    DurationMs delay) {
      st->pending = st->engine->schedule_in(delay, [st] {
        if (st->stopped) return;
        ++st->engine->periodic_fires_;
        st->engine->obs_periodic_.add();
        const bool keep = st->fn(st->engine->now());
        if (keep && !st->stopped) {
          arm(st, st->period);
        } else {
          st->stopped = true;
        }
      });
    }
  };
  Arm::arm(state, first_delay);
  return PeriodicTask(state);
}

void Engine::count_dispatch() {
  ++events_processed_;
  obs_dispatched_.add();
  obs_queue_depth_.set(static_cast<double>(queue_.size()));
}

TimeMs Engine::run_until(TimeMs until) {
  COCG_EXPECTS(until >= now_);
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.next_time() > until) break;
    std::pair<TimeMs, EventFn> ev;
    {
      obs::StageScope scope(prof_queue_);
      ev = queue_.pop();
    }
    now_ = ev.first;  // the event observes its own timestamp via now()
    ev.second();
    count_dispatch();
  }
  if (now_ < until) now_ = until;
  return now_;
}

TimeMs Engine::run_all() {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    std::pair<TimeMs, EventFn> ev;
    {
      obs::StageScope scope(prof_queue_);
      ev = queue_.pop();
    }
    now_ = ev.first;
    ev.second();
    count_dispatch();
  }
  return now_;
}

}  // namespace cocg::sim
