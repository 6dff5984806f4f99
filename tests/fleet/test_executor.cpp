#include "fleet/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cocg::fleet {
namespace {

TEST(RunnerKind, NamesRoundTrip) {
  RunnerKind k = RunnerKind::kSteal;
  EXPECT_TRUE(parse_runner_kind("lockstep", k));
  EXPECT_EQ(k, RunnerKind::kLockstep);
  EXPECT_STREQ(runner_kind_name(k), "lockstep");
  EXPECT_TRUE(parse_runner_kind("steal", k));
  EXPECT_EQ(k, RunnerKind::kSteal);
  EXPECT_STREQ(runner_kind_name(k), "steal");
  EXPECT_FALSE(parse_runner_kind("barrier", k));
  EXPECT_FALSE(parse_runner_kind("", k));
}

TEST(ShardExecutor, RunsEveryJobExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ShardExecutor exec(threads, 3);
    std::vector<std::atomic<int>> hits(30);
    for (int i = 0; i < 30; ++i) {
      exec.submit(i % 3, [&hits, i] { ++hits[static_cast<std::size_t>(i)]; });
    }
    exec.drain();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
    EXPECT_EQ(exec.snapshot().jobs_run, 30u) << threads;
  }
}

TEST(ShardExecutor, ShardJobsRunInSubmissionOrder) {
  // 8 threads fighting over 2 shards: each shard's jobs must still apply
  // strictly in submission order — the determinism contract's backbone.
  ShardExecutor exec(8, 2);
  std::vector<int> seen[2];
  std::mutex mu[2];
  for (int i = 0; i < 200; ++i) {
    const int shard = i % 2;
    const int seq = i / 2;
    exec.submit(shard, [&, shard, seq] {
      std::lock_guard<std::mutex> lk(mu[shard]);
      seen[shard].push_back(seq);
    });
  }
  exec.drain();
  for (int shard = 0; shard < 2; ++shard) {
    ASSERT_EQ(seen[shard].size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[shard][i], i) << shard;
  }
}

TEST(ShardExecutor, ShardJobsNeverOverlap) {
  // One counter per shard incremented non-atomically at both ends of the
  // job; concurrent execution of one shard's jobs would race and trip the
  // equality check (and TSan in the sanitize job).
  ShardExecutor exec(4, 2);
  int counter[2] = {0, 0};
  std::atomic<bool> in_flight[2] = {false, false};
  for (int i = 0; i < 100; ++i) {
    const int shard = i % 2;
    exec.submit(shard, [&, shard] {
      EXPECT_FALSE(in_flight[shard].exchange(true));
      ++counter[shard];
      std::this_thread::yield();
      in_flight[shard].store(false);
    });
  }
  exec.drain();
  EXPECT_EQ(counter[0], 50);
  EXPECT_EQ(counter[1], 50);
}

TEST(ShardExecutor, IdleWorkersStealForeignShards) {
  // Shards 0 and 2 both have home worker 0 (shard % threads). Their jobs
  // rendezvous: neither can finish until both are running, so the
  // executor is forced to run them on distinct workers — and worker 1
  // executing either of them is, by definition, a steal. (A
  // sleep-until-stolen version of this test is flaky on one core, where
  // the home worker can re-acquire its shard before the idle worker ever
  // sees it runnable; the rendezvous makes the steal structural.)
  ShardExecutor exec(2, 4);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  const auto rendezvous = [&] {
    std::unique_lock<std::mutex> lk(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lk, [&] { return arrived == 2; });
  };
  exec.submit(0, rendezvous);
  exec.submit(2, rendezvous);
  exec.drain();
  const auto c = exec.snapshot();
  EXPECT_EQ(c.jobs_run, 2u);
  EXPECT_GT(c.steals, 0u);
}

TEST(ShardExecutor, DrainIsRepeatableAndSubmitContinues) {
  ShardExecutor exec(2, 2);
  std::atomic<int> ran{0};
  exec.drain();  // nothing submitted yet: returns immediately
  exec.submit(0, [&] { ++ran; });
  exec.drain();
  EXPECT_EQ(ran.load(), 1);
  exec.drain();  // nothing pending: returns immediately
  exec.submit(1, [&] { ++ran; });
  exec.submit(0, [&] { ++ran; });
  exec.drain();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ShardExecutor, DrainRethrowsFirstErrorBySubmissionIndex) {
  ShardExecutor exec(2, 3);
  std::atomic<int> ran{0};
  exec.submit(0, [&] { ++ran; });                             // idx 0
  exec.submit(1, [] { throw std::runtime_error("first"); });  // idx 1
  exec.submit(2, [] { throw std::runtime_error("later"); });  // idx 2
  exec.submit(0, [&] { ++ran; });                             // idx 3
  try {
    exec.drain();
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "epoch job 1 (shard 1): first");
  }
  EXPECT_EQ(ran.load(), 2);  // every job still ran
  // The executor survives: a later submit + drain works.
  exec.submit(1, [&] { ++ran; });  // idx 4
  exec.drain();
  EXPECT_EQ(ran.load(), 3);
  // A non-std::exception payload is wrapped with its index and shard too.
  exec.submit(2, [] { throw 42; });  // idx 5
  try {
    exec.drain();
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "epoch job 5 (shard 2): unknown exception");
  }
}

TEST(ShardExecutor, EveryFailureStillRunsLowestIndexWins) {
  for (int threads : {1, 4}) {
    ShardExecutor exec(threads, 4);
    std::atomic<int> attempts{0};
    for (int i = 0; i < 16; ++i) {
      exec.submit(i % 4, [&attempts, i] {
        ++attempts;
        throw std::runtime_error("boom " + std::to_string(i));
      });
    }
    try {
      exec.drain();
      FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "epoch job 0 (shard 0): boom 0") << threads;
    }
    EXPECT_EQ(attempts.load(), 16) << threads;
  }
}

TEST(ShardExecutor, MoreThreadsThanShards) {
  ShardExecutor exec(8, 1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    exec.submit(0, [&order, i] { order.push_back(i); });
  }
  exec.drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// The epoch-pool contract the lockstep policy relies on: one epoch is a
// batch of jobs submitted round-robin over the shards and closed by
// drain(), which is a barrier. Job i of a fresh executor's first epoch has
// submission index i, so failure messages name it exactly as a pool would.
void run_epoch(ShardExecutor& exec, const std::vector<std::function<void()>>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    exec.submit(static_cast<int>(i) % exec.shards(), jobs[i]);
  }
  exec.drain();
}

TEST(EpochPool, RunsEveryJobExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ShardExecutor exec(threads, 13);
    std::vector<std::atomic<int>> hits(13);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      jobs.push_back([&hits, i] { ++hits[i]; });
    }
    run_epoch(exec, jobs);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(EpochPool, RunIsABarrierAcrossEpochs) {
  ShardExecutor exec(4, 4);
  std::atomic<int> done{0};
  for (int epoch = 0; epoch < 50; ++epoch) {
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back([&done, epoch] {
        // Every job of epoch N must observe all of epoch N-1 finished.
        EXPECT_EQ(done.load() / 4, epoch);
        ++done;
      });
    }
    run_epoch(exec, jobs);
    EXPECT_EQ(done.load(), (epoch + 1) * 4);
  }
}

TEST(EpochPool, RethrowsFirstExceptionByJobIndex) {
  ShardExecutor exec(2, 4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs = {
      [&] { ++ran; },
      [] { throw std::runtime_error("job one"); },
      [] { throw std::runtime_error("job two"); },
      [&] { ++ran; },
  };
  try {
    run_epoch(exec, jobs);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    // The failing job's index and shard are part of the message, so a
    // 64-shard run names the shard that died instead of an anonymous
    // "what()".
    EXPECT_STREQ(e.what(), "epoch job 1 (shard 1): job one");
  }
  // The executor survives a throwing epoch.
  std::vector<std::function<void()>> ok = {[&] { ++ran; }};
  run_epoch(exec, ok);
  EXPECT_EQ(ran.load(), 3);
}

TEST(EpochPool, ManyFailuresReportTheLowestJobIndex) {
  // Every job throws; whatever order the threads run them in, the
  // rethrown error must be job 0's, and every job must still have run.
  for (int threads : {1, 2, 4}) {
    ShardExecutor exec(threads, 16);
    std::atomic<int> attempts{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 16; ++i) {
      jobs.push_back([&attempts, i] {
        ++attempts;
        throw std::runtime_error("boom " + std::to_string(i));
      });
    }
    try {
      run_epoch(exec, jobs);
      FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "epoch job 0 (shard 0): boom 0") << threads;
    }
    EXPECT_EQ(attempts.load(), 16) << threads;
  }
}

TEST(EpochPool, NonStdExceptionIsWrappedWithItsIndex) {
  ShardExecutor exec(2, 2);
  std::vector<std::function<void()>> jobs = {
      [] {},
      [] { throw 42; },
  };
  try {
    run_epoch(exec, jobs);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "epoch job 1 (shard 1): unknown exception");
  }
}

TEST(EpochPool, MoreJobsThanThreads) {
  ShardExecutor exec(3, 8);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 1; i <= 100; ++i) {
    jobs.push_back([&sum, i] { sum += i; });
  }
  run_epoch(exec, jobs);
  EXPECT_EQ(sum.load(), 5050);
}

TEST(EpochPool, EmptyJobListIsANoOp) {
  ShardExecutor exec(2, 2);
  run_epoch(exec, {});
  run_epoch(exec, {});
  EXPECT_EQ(exec.snapshot().jobs_run, 0u);
}

TEST(ShardExecutor, DestructorDrainsOutstandingJobs) {
  std::atomic<int> ran{0};
  {
    ShardExecutor exec(2, 2);
    for (int i = 0; i < 20; ++i) {
      exec.submit(i % 2, [&ran] { ++ran; });
    }
    // No drain: the destructor must still let workers finish what was
    // submitted rather than dropping queued jobs.
  }
  EXPECT_EQ(ran.load(), 20);
}

}  // namespace
}  // namespace cocg::fleet
