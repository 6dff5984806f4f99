// Stress and interplay properties for the discrete-event engine: large
// random schedules with interleaved cancellations must preserve ordering,
// liveness accounting, and determinism — plus multi-shard fleet stress
// (skewed load, router rebalance, arrival conservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "sim/engine.h"
#include "traffic/generator.h"

namespace cocg::sim {
namespace {

TEST(SimStress, RandomScheduleCancelStorm) {
  Rng rng(123);
  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<TimeMs> fired;
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const TimeMs t = rng.uniform_int(0, 10000);
    handles.push_back(q.schedule(t, [&fired, t] { fired.push_back(t); }));
  }
  // Cancel a random half.
  rng.shuffle(handles.begin(), handles.end());
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size() / 2; ++i) {
    if (q.cancel(handles[i])) ++cancelled;
  }
  EXPECT_EQ(cancelled, handles.size() / 2);
  EXPECT_EQ(q.size(), kEvents - cancelled);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired.size(), kEvents - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  // Cancelling after the fact fails for every handle.
  for (const auto& h : handles) EXPECT_FALSE(q.cancel(h));
}

TEST(SimStress, SelfRescheduleChainDepth) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10000) e.schedule_in(1, chain);
  };
  e.schedule_in(1, chain);
  e.run_all();
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(e.now(), 10000);
}

TEST(SimStress, ManyPeriodicsCoexist) {
  Engine e;
  std::vector<int> counts(50, 0);
  std::vector<PeriodicTask> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back(e.schedule_periodic(
        i + 1, i + 1, [&counts, i](TimeMs) {
          ++counts[static_cast<std::size_t>(i)];
          return true;
        }));
  }
  e.run_until(1000);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(counts[static_cast<std::size_t>(i)], 1000 / (i + 1)) << i;
  }
  for (auto& t : tasks) t.stop();
  e.run_until(2000);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(counts[static_cast<std::size_t>(i)], 1000 / (i + 1)) << i;
  }
}

TEST(SimStress, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Rng rng(77);
    Engine e;
    std::vector<std::pair<TimeMs, int>> log;
    for (int i = 0; i < 500; ++i) {
      const TimeMs t = rng.uniform_int(0, 5000);
      e.schedule_at(t, [&log, t, i] { log.push_back({t, i}); });
    }
    e.run_all();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimStress, CancelInsideEventCallback) {
  Engine e;
  bool second_ran = false;
  EventHandle h2;
  e.schedule_in(1, [&] { e.cancel(h2); });
  h2 = e.schedule_in(2, [&] { second_ran = true; });
  e.run_all();
  EXPECT_FALSE(second_ran);
}

TEST(SimStress, PeriodicStopFromWithinCallback) {
  Engine e;
  int count = 0;
  PeriodicTask task;
  task = e.schedule_periodic(1, 1, [&](TimeMs) {
    ++count;
    return count < 3;  // self-terminate via return value
  });
  e.run_until(100);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.active());
}

}  // namespace
}  // namespace cocg::sim

namespace cocg::fleet {
namespace {

/// Model-free admit-if-it-fits scheduler (no offline training) — the
/// stress runs exercise routing and sharding, not admission policy.
class GreedyScheduler final : public platform::Scheduler {
 public:
  std::string name() const override { return "greedy"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override {
    (void)req;
    // CPU 40% × 2 GPUs = 80% of the server: two concurrent sessions per
    // server, one per GPU view.
    const ResourceVector alloc{40, 90, 3500, 3500};
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        if (alloc.fits_within(srv.free_on_gpu(g))) {
          return platform::Placement{server, g, alloc};
        }
      }
    }
    return std::nullopt;
  }
};

struct SkewOutcome {
  std::size_t arrivals = 0;
  std::vector<std::size_t> routed;
  FleetReport report;
};

/// 4 shards x 1 server; shard 0 is pre-saturated by two DOTA2 arrivals at
/// t = 0 whose recorded verdict pins them there (a long game — no run
/// finishes inside the horizon) while an open-loop Contra stream hits the
/// router.
SkewOutcome run_skewed(RouterPolicy policy, int threads) {
  static const game::GameSpec dota = game::make_dota2();
  static const game::GameSpec contra = game::make_contra();
  constexpr int kShards = 4;
  constexpr int kSkewSessions = 2;  // fills shard 0's two GPU views

  FleetConfig cfg;
  cfg.shards = kShards;
  cfg.threads = threads;
  cfg.policy = policy;
  cfg.seed = 7;
  Fleet f(cfg, [](int) { return std::make_unique<GreedyScheduler>(); });
  for (int i = 0; i < kShards; ++i) f.add_server(hw::ServerSpec{});
  traffic::Trace skew;
  skew.regions = {"global"};
  skew.games.push_back({dota.name, dota.category});
  for (int i = 0; i < kSkewSessions; ++i) {
    skew.events.push_back({0, 0, 0, static_cast<std::uint64_t>(i + 1),
                           traffic::PlayerProfile::kRegular, 0, 0,
                           /*shard=*/0});
  }
  f.add_trace_arrivals(skew, {&dota}, /*use_recorded_routing=*/true);
  // Light enough that the three healthy shards keep draining: a load-aware
  // router has no reason to touch the saturated shard.
  constexpr DurationMs kHorizon = 20 * 60 * 1000;
  f.add_trace_arrivals(traffic::generate_trace(traffic::per_game_poisson(
                           {&contra}, 60.0, kHorizon, cfg.seed)),
                       {&contra}, /*use_recorded_routing=*/false);
  f.run(kHorizon);

  // The skew arrivals count as routed to shard 0; `arrivals` and
  // `routed` below are the Contra stream's alone.
  SkewOutcome out;
  out.arrivals = f.arrivals_generated() - kSkewSessions;
  for (int i = 0; i < kShards; ++i) out.routed.push_back(f.routed_to(i));
  out.routed[0] -= kSkewSessions;
  out.report = f.report();
  EXPECT_EQ(out.report.per_game.count("DOTA2"), 0u)
      << "a skew session finished inside the horizon";
  // No arrival lost or duplicated: every routed request, the skew
  // included, is finished, running or queued.
  for (int i = 0; i < kShards; ++i) {
    const auto& row = out.report.shards[static_cast<std::size_t>(i)];
    EXPECT_EQ(row.routed, row.completed + row.running_end + row.queued_end)
        << router_policy_name(policy) << " shard " << i;
  }
  std::size_t total_routed = 0;
  for (auto r : out.routed) total_routed += r;
  EXPECT_EQ(total_routed, out.arrivals);
  return out;
}

TEST(FleetStress, LoadAwarePoliciesRebalanceAwayFromSkewedShard) {
  const auto rr = run_skewed(RouterPolicy::kRoundRobin, 2);
  const auto ll = run_skewed(RouterPolicy::kLeastLoaded, 2);
  const auto p2c = run_skewed(RouterPolicy::kPowerOfTwo, 2);

  // All three policies saw the identical arrival stream (same fleet seed;
  // routing does not consume the arrival RNG).
  ASSERT_EQ(rr.arrivals, ll.arrivals);
  ASSERT_EQ(rr.arrivals, p2c.arrivals);
  ASSERT_GE(rr.arrivals, 15u);  // the stream's mean is 20 (60/h, 20 min)

  // Round-robin is load-blind: the saturated shard keeps receiving its
  // even share and a backlog piles up behind the skew sessions.
  EXPECT_GE(rr.routed[0] * 5, rr.arrivals);  // >= 20% of the stream
  EXPECT_GT(rr.report.shards[0].queued_end, 0u);

  // The load-aware policies divert most of the skewed shard's share to
  // the idle shards.
  EXPECT_LT(ll.routed[0] * 2, rr.routed[0]);
  EXPECT_LT(p2c.routed[0], rr.routed[0]);
  EXPECT_LE(ll.report.shards[0].queued_end,
            rr.report.shards[0].queued_end);
  // Diverted work actually lands elsewhere, it does not evaporate.
  EXPECT_GT(ll.routed[1] + ll.routed[2] + ll.routed[3],
            rr.routed[1] + rr.routed[2] + rr.routed[3]);
  EXPECT_GE(ll.report.completed, rr.report.completed);
}

TEST(FleetStress, SkewedFleetDeterministicAcrossThreadCounts) {
  const auto serial = run_skewed(RouterPolicy::kLeastLoaded, 1);
  const auto parallel = run_skewed(RouterPolicy::kLeastLoaded, 4);
  EXPECT_EQ(serial.arrivals, parallel.arrivals);
  EXPECT_EQ(serial.routed, parallel.routed);
  EXPECT_EQ(serial.report.completed, parallel.report.completed);
  EXPECT_DOUBLE_EQ(serial.report.throughput, parallel.report.throughput);
}

}  // namespace
}  // namespace cocg::fleet
