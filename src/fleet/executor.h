// ShardExecutor — the fleet's one shard runner.
//
// Each shard owns a private FIFO queue of epoch jobs. The fleet
// coordinator enqueues one job per shard per control period and drains
// the executor (a sync) wherever it needs every shard at the same
// boundary: before every epoch under the lockstep policy, and only on a
// real cross-shard data dependency under the run-ahead steal policy (see
// Fleet::run). Workers prefer their home shards (shard % threads ==
// worker) and, when those queues are empty, steal the *whole next epoch*
// of the laggard shard — the runnable shard with the deepest backlog — so
// a slow shard is driven by every idle worker in turn instead of stalling
// them.
//
// Determinism contract: a shard's jobs execute in submission order and
// never concurrently with each other (thread confinement), so per-shard
// state evolves exactly as it would single-threaded; which worker runs a
// job affects wall clock only. Both runner policies therefore produce
// byte-identical reports at any thread count (tests/fleet enforces this
// at 1, 2 and 8 threads).
//
// Error handling: every submitted job still runs, and drain() rethrows
// the first failure by submission index as
// "epoch job <idx> (shard <s>): <what>".
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cocg::fleet {

/// Which sync policy Fleet::run drives the executor with. Lockstep drains
/// before every epoch (the reference schedule); steal routes ahead and
/// drains only on a cross-shard dependency. Reports are identical.
enum class RunnerKind { kLockstep, kSteal };

const char* runner_kind_name(RunnerKind kind);
/// Parse "lockstep" / "steal". Returns false on unknown names.
bool parse_runner_kind(const std::string& name, RunnerKind& out);

class ShardExecutor {
 public:
  /// Spawns `threads` worker threads serving `shards` queues. The caller
  /// never claims jobs: the coordinator keeps routing future epochs while
  /// workers execute, which is where the run-ahead overlap comes from.
  ShardExecutor(int threads, int shards);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  int threads() const { return threads_; }
  int shards() const { return static_cast<int>(queues_.size()); }

  /// Enqueue the next epoch job for `shard`. Jobs of one shard run in
  /// submission order, one at a time.
  void submit(int shard, std::function<void()> job);

  /// Block until every submitted job has finished. Rethrows the first
  /// error by submission index, wrapped with the job index and its shard.
  /// Returns at once when nothing is pending. Safe to call repeatedly;
  /// submit() may be called again afterwards.
  void drain();

  /// Wall-clock diagnostics, read in one lock acquisition (stable only
  /// after drain()).
  struct Counters {
    std::uint64_t jobs_run = 0;
    /// Jobs executed by a worker other than the shard's home worker.
    std::uint64_t steals = 0;
    std::uint64_t steal_ns = 0;    ///< wall time inside stolen jobs
    std::uint64_t idle_waits = 0;
    std::uint64_t idle_ns = 0;     ///< wall time workers spent blocked
  };
  Counters snapshot() const;

 private:
  struct ShardQueue {
    std::deque<std::pair<std::size_t, std::function<void()>>> jobs;
    bool busy = false;  ///< a worker is executing this shard right now
  };

  void worker_loop(int worker);
  /// Pick a runnable shard for `worker` (deepest home queue first, then
  /// deepest queue overall). Returns -1 when nothing is runnable.
  int pick_shard_locked(int worker) const;

  const int threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue state changed
  std::condition_variable done_cv_;  ///< drain(): a job completed
  std::vector<ShardQueue> queues_;
  std::size_t submitted_ = 0;
  std::size_t done_ = 0;
  std::size_t first_error_idx_ = 0;
  int first_error_shard_ = 0;
  std::exception_ptr error_;
  bool shutdown_ = false;

  std::uint64_t jobs_run_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t steal_ns_ = 0;
  std::uint64_t idle_waits_ = 0;
  std::uint64_t idle_ns_ = 0;
};

}  // namespace cocg::fleet
