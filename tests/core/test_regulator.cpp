#include "core/regulator.h"

#include <gtest/gtest.h>

namespace cocg::core {
namespace {

const ResourceVector kCap{100, 100, 8192, 8192};

SessionPressure pressure(std::uint64_t sid, double gpu_wanted,
                         bool loading = false, DurationMs stolen = 0) {
  SessionPressure p;
  p.sid = SessionId{sid};
  p.in_loading = loading;
  p.wanted = ResourceVector{30, gpu_wanted, 2000, 2000};
  p.loading_demand = ResourceVector{55, 8, 1500, 2000};
  p.stolen_ms = stolen;
  return p;
}

std::vector<RegulatorAction> resolve(Regulator& r, const ResourceVector& cap,
                                     const std::vector<SessionPressure>& in) {
  std::vector<RegulatorAction> actions;
  r.resolve(cap, in, actions);
  return actions;
}

TEST(Regulator, NoPressureReleasesEverything) {
  Regulator r;
  const auto actions = resolve(r, kCap, {pressure(1, 40), pressure(2, 40)});
  ASSERT_EQ(actions.size(), 2u);
  for (const auto& a : actions) {
    EXPECT_FALSE(a.hold);
  }
  EXPECT_EQ(actions[0].allocation.gpu(), 40.0);
}

TEST(Regulator, StealsFromLoadingSession) {
  Regulator r;
  // Exec session wants 80, loading session pre-provisions 40 → 120 > 95.
  const auto actions =
      resolve(r, kCap, {pressure(1, 80), pressure(2, 40, /*loading=*/true)});
  EXPECT_FALSE(actions[0].hold);  // never cut a game at its peak
  EXPECT_TRUE(actions[1].hold);
  // Held session throttled to a fraction of the loading draw.
  EXPECT_LT(actions[1].allocation.cpu(), 55.0);
  EXPECT_EQ(actions[0].allocation.gpu(), 80.0);
}

TEST(Regulator, NeverHoldsExecutionSessions) {
  Regulator r;
  const auto actions = resolve(r, kCap, {pressure(1, 80), pressure(2, 80)});
  for (const auto& a : actions) EXPECT_FALSE(a.hold);
}

TEST(Regulator, StopsStealingOnceFits) {
  Regulator r;
  // Two loading sessions; stealing from the first suffices.
  const auto actions = resolve(r, 
      kCap, {pressure(1, 60), pressure(2, 50, true), pressure(3, 30, true)});
  EXPECT_TRUE(actions[1].hold);
  EXPECT_FALSE(actions[2].hold);
}

TEST(Regulator, StealBudgetExhaustedExempts) {
  RegulatorConfig cfg;
  cfg.max_steal_ms = 30000;
  Regulator r(cfg);
  const auto actions = resolve(r, 
      kCap,
      {pressure(1, 80), pressure(2, 40, true, /*stolen=*/30000)});
  // Budget gone: the loading session keeps its wanted allocation.
  EXPECT_FALSE(actions[1].hold);
  EXPECT_EQ(actions[1].allocation.gpu(), 40.0);
}

TEST(Regulator, HeldFractionConfigurable) {
  RegulatorConfig cfg;
  cfg.held_loading_frac = 0.5;
  Regulator r(cfg);
  const auto actions =
      resolve(r, kCap, {pressure(1, 80), pressure(2, 40, true)});
  ASSERT_TRUE(actions[1].hold);
  EXPECT_DOUBLE_EQ(actions[1].allocation.cpu(), 55.0 * 0.5);
}

TEST(Regulator, CapacityLimitConfigurable) {
  RegulatorConfig tight;
  tight.capacity_limit = 0.60;
  Regulator r(tight);
  // 40+30 = 70 > 60 → steal.
  const auto actions =
      resolve(r, kCap, {pressure(1, 40), pressure(2, 30, true)});
  EXPECT_TRUE(actions[1].hold);
}

TEST(Regulator, OutputOrderMatchesInput) {
  Regulator r;
  const auto actions =
      resolve(r, kCap, {pressure(9, 10), pressure(3, 10), pressure(7, 10)});
  EXPECT_EQ(actions[0].sid.value, 9u);
  EXPECT_EQ(actions[1].sid.value, 3u);
  EXPECT_EQ(actions[2].sid.value, 7u);
}

TEST(Regulator, EmptyInputOk) {
  Regulator r;
  EXPECT_TRUE(resolve(r, kCap, {}).empty());
}

TEST(Regulator, OverloadWithNoLoadingSessionsKeepsWanted) {
  Regulator r;
  // Nothing to steal from: allocations pass through; contention handles
  // the squeeze (§IV-D bounded degradation).
  const auto actions = resolve(r, kCap, {pressure(1, 70), pressure(2, 70)});
  EXPECT_EQ(actions[0].allocation.gpu(), 70.0);
  EXPECT_EQ(actions[1].allocation.gpu(), 70.0);
}

}  // namespace
}  // namespace cocg::core
