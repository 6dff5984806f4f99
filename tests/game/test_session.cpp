#include "game/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <set>

#include "common/check.h"
#include "game/library.h"

namespace cocg::game {
namespace {

/// Session config without stochastic spikes, for determinism-sensitive
/// assertions.
SessionConfig quiet() {
  SessionConfig cfg;
  cfg.spike_prob = 0.0;
  return cfg;
}

GameSession make_session(const GameSpec& spec, std::size_t script,
                         std::uint64_t seed, SessionConfig cfg = quiet()) {
  Rng rng(seed);
  auto plan = generate_plan(spec, script, 1, rng);
  return GameSession(SessionId{1}, &spec, script, std::move(plan),
                     rng.fork(), cfg);
}

/// Run to completion at full supply; returns total elapsed ms.
DurationMs run_full_supply(GameSession& s) {
  TimeMs now = 0;
  s.begin(now);
  while (!s.finished()) {
    s.tick(now, s.demand());
    now += 1000;
  }
  return s.elapsed_ms();
}

TEST(Session, LifecycleBasics) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 0, 1);
  EXPECT_FALSE(s.started());
  s.begin(0);
  EXPECT_TRUE(s.started());
  EXPECT_FALSE(s.finished());
  EXPECT_EQ(s.stage_kind(), StageKind::kLoading);  // init loading
  EXPECT_THROW(s.begin(0), ContractError);         // double begin
}

TEST(Session, FullSupplyRunsNominalDuration) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 0, 2);
  DurationMs nominal = 0;
  for (const auto& ps : s.plan()) nominal += ps.planned_dwell_ms;
  const DurationMs elapsed = run_full_supply(s);
  // At full supply loading never stretches: elapsed ≈ nominal (tick
  // rounding may add up to one tick per stage).
  EXPECT_GE(elapsed, nominal - 1000);
  EXPECT_LE(elapsed,
            nominal + 1000 * static_cast<DurationMs>(s.plan_size()));
  EXPECT_EQ(s.loading_extension_ms(), 0);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.end_time(), s.start_time() + elapsed);
}

TEST(Session, DemandMatchesActiveClusterCentroid) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 0, 3);
  s.begin(0);
  // During init loading the demand is near the loading centroid.
  const ResourceVector d = s.demand();
  const ResourceVector c = g.cluster(0).centroid;
  EXPECT_NEAR(d.cpu(), c.cpu(), 5 * g.cluster(0).jitter.cpu() + 1.0);
  EXPECT_LT(d.gpu(), 15.0);
}

TEST(Session, StarvedLoadingStretches) {
  static const GameSpec g = make_contra();
  GameSession full = make_session(g, 0, 4);
  GameSession starved = make_session(g, 0, 4);

  // Full-supply loading time.
  TimeMs now = 0;
  full.begin(now);
  while (!full.finished() && full.stage_kind() == StageKind::kLoading) {
    full.tick(now, full.demand());
    now += 1000;
  }
  const DurationMs t_full = full.loading_ms();

  // Half-CPU during every loading stage → loading takes about twice as
  // long over the whole run (extension is accounted at plan granularity).
  now = 0;
  starved.begin(now);
  DurationMs first_loading = 0;
  bool in_first = true;
  while (!starved.finished()) {
    ResourceVector supplied = starved.demand();
    if (starved.stage_kind() == StageKind::kLoading) {
      supplied[Dim::kCpuPct] *= 0.5;
      if (in_first) first_loading += 1000;
    } else {
      in_first = false;
    }
    starved.tick(now, supplied);
    now += 1000;
  }
  EXPECT_GE(first_loading, 2 * t_full - 2000);
  EXPECT_GT(starved.loading_extension_ms(), 0);
}

TEST(Session, LoadingHoldFreezesProgress) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 0, 5);
  TimeMs now = 0;
  s.begin(now);
  s.set_loading_hold(true);
  for (int i = 0; i < 60; ++i) {
    s.tick(now, s.demand());
    now += 1000;
  }
  // Still loading after 60 s of hold (nominal loading is 5–8 s).
  EXPECT_EQ(s.stage_kind(), StageKind::kLoading);
  s.set_loading_hold(false);
  while (s.stage_kind() == StageKind::kLoading && !s.finished()) {
    s.tick(now, s.demand());
    now += 1000;
  }
  EXPECT_EQ(s.stage_kind(), StageKind::kExecution);
}

TEST(Session, ExecutionAdvancesEvenWhenStarved) {
  static const GameSpec g = make_contra();
  GameSession a = make_session(g, 0, 6);
  GameSession b = make_session(g, 0, 6);
  // a at full supply, b starved during execution: same wall-clock length
  // apart from loading stretch (none here since loading fully supplied).
  auto run = [](GameSession& s, double exec_factor) {
    TimeMs now = 0;
    s.begin(now);
    while (!s.finished()) {
      ResourceVector supplied = s.demand();
      if (s.stage_kind() == StageKind::kExecution) supplied *= exec_factor;
      s.tick(now, supplied);
      now += 1000;
    }
    return s.elapsed_ms();
  };
  EXPECT_EQ(run(a, 1.0), run(b, 0.5));
}

TEST(Session, FpsZeroDuringLoading) {
  static const GameSpec g = make_genshin();
  GameSession s = make_session(g, 0, 7);
  TimeMs now = 0;
  s.begin(now);
  s.tick(now, s.demand());
  EXPECT_EQ(s.stage_kind() == StageKind::kLoading ? s.last_fps() : 0.0, 0.0);
}

TEST(Session, FpsCapRespected) {
  static const GameSpec g = make_genshin();  // capped at 60
  GameSession s = make_session(g, 0, 8);
  TimeMs now = 0;
  s.begin(now);
  while (!s.finished()) {
    s.tick(now, s.demand());
    if (s.last_fps() > 0.0) {
      EXPECT_LE(s.last_fps(), 60.0);
    }
    now += 1000;
  }
}

TEST(Session, FpsDegradesUnderStarvation) {
  static const GameSpec g = make_genshin();
  GameSession s = make_session(g, 0, 9);
  TimeMs now = 0;
  s.begin(now);
  // Reach the first execution stage at full supply.
  while (!s.finished() && s.stage_kind() == StageKind::kLoading) {
    s.tick(now, s.demand());
    now += 1000;
  }
  // Starve GPU to 50%.
  ResourceVector supplied = s.demand();
  supplied[Dim::kGpuPct] *= 0.5;
  s.tick(now, supplied);
  const double expected = s.achievable_fps() * std::pow(0.5, 1.5);
  EXPECT_NEAR(s.last_fps(), expected, expected * 0.25);
  EXPECT_LT(s.last_fps(), 30.0);  // 60 * 0.35 ≈ 21 → QoS violation
  EXPECT_GT(s.qos_violation_ms(), 0);
}

TEST(Session, FullSupplyFpsIsExactlyAchievable) {
  static const GameSpec g = make_genshin();
  GameSession s = make_session(g, 0, 12);
  TimeMs now = 0;
  s.begin(now);
  int checked = 0;
  while (!s.finished()) {
    const bool exec = s.stage_kind() == StageKind::kExecution;
    const double achievable = exec ? s.achievable_fps() : 0.0;
    s.tick(now, s.demand());
    if (exec) {
      EXPECT_EQ(s.last_fps(), achievable);
      ++checked;
    }
    now += 1000;
  }
  EXPECT_GT(checked, 0);
}

// Full, partial and starved supply in turn, with demand spikes on: the
// per-tick FPS sequence is pinned bit for bit by a digest of a run where
// every execution tick went through pow().
TEST(Session, SeededFpsSequenceMatchesDigest) {
  static const GameSpec g = make_dota2();
  GameSession s = make_session(g, 0, 13, SessionConfig{});
  const double supply[] = {1.0, 1.0, 0.9, 1.0, 0.5, 1.0, 0.75, 1.0, 0.2};
  std::uint64_t h = 14695981039346656037ULL;
  TimeMs now = 0;
  s.begin(now);
  std::size_t ticks = 0;
  while (!s.finished()) {
    s.tick(now, s.demand() * supply[ticks % std::size(supply)]);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a;", s.last_fps());
    for (const char* c = buf; *c != '\0'; ++c) {
      h ^= static_cast<unsigned char>(*c);
      h *= 1099511628211ULL;
    }
    ++ticks;
    now += 1000;
  }
  EXPECT_GT(ticks, 100u);
  EXPECT_EQ(h, 0x446ae5e424baf055ULL) << std::hex << h;
}

TEST(Session, MeanFpsRatioOneAtFullSupply) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 0, 10);
  run_full_supply(s);
  EXPECT_NEAR(s.mean_fps_ratio(), 1.0, 0.01);
  EXPECT_EQ(s.qos_violation_ms(), 0);
}

TEST(Session, StageHistoryMatchesPlan) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 1, 11);  // two levels
  run_full_supply(s);
  EXPECT_EQ(s.stage_history(), plan_stage_types(s.plan()));
}

TEST(Session, ExecutionAndLoadingTimesPartitionElapsed) {
  static const GameSpec g = make_genshin();
  GameSession s = make_session(g, 0, 12);
  const DurationMs elapsed = run_full_supply(s);
  EXPECT_EQ(s.execution_ms() + s.loading_ms(), elapsed);
}

TEST(Session, MultiClusterStageVisitsAllClusters) {
  static const GameSpec g = make_dota2();
  // Script 0 contains the two-cluster "Fights" stage.
  GameSession s = make_session(g, 0, 13);
  TimeMs now = 0;
  s.begin(now);
  std::set<int> seen;
  while (!s.finished()) {
    if (s.stage_type() == 2) seen.insert(s.current_cluster());
    s.tick(now, s.demand());
    now += 1000;
  }
  EXPECT_EQ(seen.size(), 2u);  // teamfight + push both visited
}

TEST(Session, DemandAfterFinishThrows) {
  static const GameSpec g = make_contra();
  GameSession s = make_session(g, 0, 14);
  run_full_supply(s);
  EXPECT_THROW(s.demand(), ContractError);
  EXPECT_EQ(s.stage_type(), -1);
}

TEST(Session, SpikesOccurWhenEnabled) {
  static const GameSpec g = make_genshin();
  SessionConfig cfg;
  cfg.spike_prob = 0.05;  // aggressive for the test
  cfg.spike_factor = 2.0;
  GameSession s = make_session(g, 0, 15, cfg);
  TimeMs now = 0;
  s.begin(now);
  double max_gpu = 0.0;
  while (!s.finished()) {
    if (s.stage_kind() == StageKind::kExecution) {
      max_gpu = std::max(max_gpu, s.demand().gpu());
    }
    s.tick(now, s.demand());
    now += 1000;
  }
  // A 2x spike pushes GPU demand well above the 78% battle centroid.
  EXPECT_GT(max_gpu, 100.0);
}

// Property: across all games/scripts, full-supply sessions terminate and
// deliver sane QoS accounting.
class SessionSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SessionSweep, TerminatesWithCleanAccounting) {
  const auto [game_idx, seed] = GetParam();
  static const auto suite = paper_suite();
  const GameSpec& g = suite[static_cast<std::size_t>(game_idx)];
  for (std::size_t script = 0; script < g.scripts.size(); ++script) {
    GameSession s = make_session(g, script, seed);
    const DurationMs elapsed = run_full_supply(s);
    EXPECT_GT(elapsed, 0) << g.name;
    EXPECT_TRUE(s.finished());
    EXPECT_EQ(s.loading_extension_ms(), 0) << g.name;
    EXPECT_GE(s.mean_fps_ratio(), 0.99) << g.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGames, SessionSweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(21ULL, 22ULL)));

}  // namespace
}  // namespace cocg::game
