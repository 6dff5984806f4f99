#include "game/plan.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "game/library.h"

namespace cocg::game {
namespace {

TEST(Plan, AlternatesLoadingAndExecution) {
  const GameSpec g = make_contra();
  Rng rng(1);
  const auto plan = generate_plan(g, 2, 1, rng);  // first three levels
  ASSERT_GE(plan.size(), 2u);
  // Structure: L, E, L, E, L, E, L (loading between and around stages).
  EXPECT_EQ(plan[0].stage_type, g.loading_stage_type);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const bool expect_loading = (i % 2 == 0);
    EXPECT_EQ(g.stage_type(plan[i].stage_type).kind ==
                  StageKind::kLoading,
              expect_loading)
        << "at " << i;
  }
  // Three levels → 3 executions + 4 loadings.
  EXPECT_EQ(plan.size(), 7u);
}

TEST(Plan, DwellWithinSpecRange) {
  const GameSpec g = make_genshin();
  Rng rng(2);
  const auto plan = generate_plan(g, 0, 1, rng);
  for (const auto& ps : plan) {
    const auto& st = g.stage_type(ps.stage_type);
    EXPECT_GE(ps.planned_dwell_ms, st.min_dwell_ms);
    EXPECT_LE(ps.planned_dwell_ms, st.max_dwell_ms);
  }
}

TEST(Plan, ClusterOrderIsPermutationOfSpec) {
  const GameSpec g = make_dota2();
  Rng rng(3);
  const auto plan = generate_plan(g, 0, 1, rng);
  for (const auto& ps : plan) {
    const auto& st = g.stage_type(ps.stage_type);
    std::multiset<int> expect(st.clusters.begin(), st.clusters.end());
    std::multiset<int> got(ps.cluster_order.begin(), ps.cluster_order.end());
    EXPECT_EQ(expect, got);
  }
}

TEST(Plan, MobilePlayerOrderStablePerPlayer) {
  const GameSpec g = make_genshin();
  Rng rng1(4), rng2(5);
  const auto a = plan_stage_types(generate_plan(g, 0, 7, rng1));
  const auto b = plan_stage_types(generate_plan(g, 0, 7, rng2));
  // Same player, same script → same task order regardless of run RNG.
  EXPECT_EQ(a, b);
}

TEST(Plan, MobileDifferentPlayersUsuallyDiffer) {
  const GameSpec g = make_genshin();
  int diffs = 0;
  for (std::uint64_t p = 1; p <= 8; ++p) {
    Rng rng(6);
    Rng rng_ref(6);
    const auto mine = plan_stage_types(generate_plan(g, 0, p, rng));
    const auto ref = plan_stage_types(generate_plan(g, 0, 1, rng_ref));
    if (mine != ref) ++diffs;
  }
  EXPECT_GE(diffs, 3);  // most of 8 players deviate from player 1's order
}

TEST(Plan, MobaRepeatsVaryAcrossRuns) {
  const GameSpec g = make_csgo();  // rounds repeat 6–10 times
  std::set<std::size_t> lengths;
  for (int i = 0; i < 20; ++i) {
    Rng rng(100 + i);
    lengths.insert(generate_plan(g, 0, 1, rng).size());
  }
  EXPECT_GE(lengths.size(), 3u);  // user influence → varying plan length
}

TEST(Plan, SkippableSegmentsSometimesSkipped) {
  const GameSpec g = make_devil_may_cry();  // script 3 has skip_probs
  int with_menu = 0, without_menu = 0;
  for (int i = 0; i < 40; ++i) {
    Rng rng(200 + i);
    const auto types = plan_stage_types(generate_plan(g, 2, 1, rng));
    const bool has_menu =
        std::find(types.begin(), types.end(), 6) != types.end();
    (has_menu ? with_menu : without_menu)++;
  }
  EXPECT_GT(with_menu, 0);
  EXPECT_GT(without_menu, 0);
}

TEST(Plan, RepeatsRespectBounds) {
  const GameSpec g = make_csgo();
  for (int i = 0; i < 10; ++i) {
    Rng rng(300 + i);
    const auto types = plan_stage_types(generate_plan(g, 0, 1, rng));
    const auto rounds = std::count(types.begin(), types.end(), 2);
    EXPECT_GE(rounds, 6);
    EXPECT_LE(rounds, 10);
  }
}

TEST(Plan, NominalDurationSumsDwells) {
  const GameSpec g = make_contra();
  Rng rng(7);
  const auto plan = generate_plan(g, 0, 1, rng);
  DurationMs total = 0;
  for (const auto& ps : plan) total += ps.planned_dwell_ms;
  EXPECT_GT(total, 0);
}

TEST(Plan, InvalidScriptIndexThrows) {
  const GameSpec g = make_contra();
  Rng rng(8);
  EXPECT_THROW(generate_plan(g, 99, 1, rng), ContractError);
}

// Property: for every game and script, plans start and end with loading.
class PlanShapeProp
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanShapeProp, BoundedByLoading) {
  const auto [game_idx, seed] = GetParam();
  const auto suite = paper_suite();
  const GameSpec& g = suite[static_cast<std::size_t>(game_idx)];
  for (std::size_t script = 0; script < g.scripts.size(); ++script) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto plan = generate_plan(g, script, 3, rng);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front().stage_type, g.loading_stage_type);
    EXPECT_EQ(plan.back().stage_type, g.loading_stage_type);
    // No two consecutive identical-kind stages.
    for (std::size_t i = 1; i < plan.size(); ++i) {
      EXPECT_NE(g.stage_type(plan[i].stage_type).kind,
                g.stage_type(plan[i - 1].stage_type).kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GamesAndSeeds, PlanShapeProp,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace cocg::game
