#include "fleet/executor.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"

namespace cocg::fleet {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rethrow a captured job error as "epoch job <idx> (shard <s>): <what>";
/// non-std::exception payloads become "... : unknown exception".
[[noreturn]] void rethrow_job_error(const std::exception_ptr& err,
                                    std::size_t job_index, int shard) {
  const std::string prefix = "epoch job " + std::to_string(job_index) +
                             " (shard " + std::to_string(shard) + "): ";
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    throw std::runtime_error(prefix + e.what());
  } catch (...) {
    throw std::runtime_error(prefix + "unknown exception");
  }
}

}  // namespace

const char* runner_kind_name(RunnerKind kind) {
  switch (kind) {
    case RunnerKind::kLockstep: return "lockstep";
    case RunnerKind::kSteal: return "steal";
  }
  return "?";
}

bool parse_runner_kind(const std::string& name, RunnerKind& out) {
  if (name == "lockstep") out = RunnerKind::kLockstep;
  else if (name == "steal") out = RunnerKind::kSteal;
  else return false;
  return true;
}

ShardExecutor::ShardExecutor(int threads, int shards) : threads_(threads) {
  COCG_EXPECTS(threads >= 1);
  COCG_EXPECTS(shards >= 1);
  queues_.resize(static_cast<std::size_t>(shards));
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ShardExecutor::~ShardExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardExecutor::submit(int shard, std::function<void()> job) {
  COCG_EXPECTS(shard >= 0 && shard < shards());
  COCG_EXPECTS(job != nullptr);
  {
    std::lock_guard<std::mutex> lk(mu_);
    queues_[static_cast<std::size_t>(shard)].jobs.emplace_back(
        submitted_++, std::move(job));
  }
  work_cv_.notify_one();
}

int ShardExecutor::pick_shard_locked(int worker) const {
  // Laggard-first within each tier: among runnable shards (idle with a
  // non-empty queue) prefer the worker's own home shards, then steal the
  // deepest queue overall. Ties resolve to the lowest shard id — stable,
  // though by the thread-confinement argument the choice never affects
  // results, only the schedule.
  int best_home = -1, best_any = -1;
  std::size_t depth_home = 0, depth_any = 0;
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    const ShardQueue& q = queues_[s];
    if (q.busy || q.jobs.empty()) continue;
    const std::size_t depth = q.jobs.size();
    if (static_cast<int>(s % static_cast<std::size_t>(threads_)) == worker &&
        depth > depth_home) {
      depth_home = depth;
      best_home = static_cast<int>(s);
    }
    if (depth > depth_any) {
      depth_any = depth;
      best_any = static_cast<int>(s);
    }
  }
  return best_home >= 0 ? best_home : best_any;
}

void ShardExecutor::worker_loop(int worker) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const int shard = pick_shard_locked(worker);
    if (shard < 0) {
      if (shutdown_) return;
      ++idle_waits_;
      const std::uint64_t wait_start = wall_ns();
      work_cv_.wait(lk, [&] {
        return shutdown_ || pick_shard_locked(worker) >= 0;
      });
      idle_ns_ += wall_ns() - wait_start;
      continue;
    }
    ShardQueue& q = queues_[static_cast<std::size_t>(shard)];
    const std::size_t idx = q.jobs.front().first;
    std::function<void()> job = std::move(q.jobs.front().second);
    q.jobs.pop_front();
    q.busy = true;
    const bool stolen =
        static_cast<int>(static_cast<std::size_t>(shard) %
                         static_cast<std::size_t>(threads_)) != worker;
    lk.unlock();

    const std::uint64_t job_start = stolen ? wall_ns() : 0;
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }

    lk.lock();
    q.busy = false;
    ++jobs_run_;
    if (stolen) {
      ++steals_;
      steal_ns_ += wall_ns() - job_start;
    }
    if (err && (error_ == nullptr || idx < first_error_idx_)) {
      error_ = err;
      first_error_idx_ = idx;
      first_error_shard_ = shard;
    }
    ++done_;
    // Freeing this shard (or having popped its queue) may make another
    // job runnable for some waiting worker; drain() also needs the nudge.
    work_cv_.notify_all();
    done_cv_.notify_all();
  }
}

void ShardExecutor::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return done_ == submitted_; });
  if (error_ != nullptr) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    rethrow_job_error(err, first_error_idx_, first_error_shard_);
  }
}

ShardExecutor::Counters ShardExecutor::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return Counters{jobs_run_, steals_, steal_ns_, idle_waits_, idle_ns_};
}

}  // namespace cocg::fleet
