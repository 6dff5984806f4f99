#include "core/capacity_planner.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "game/library.h"
#include "platform/cloud_platform.h"
#include "core/cocg_scheduler.h"

namespace cocg::core {
namespace {

const std::vector<game::GameSpec>& suite() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

const std::map<std::string, TrainedGame>& models() {
  static const std::map<std::string, TrainedGame> m = [] {
    OfflineConfig cfg;
    cfg.profiling_runs = 10;
    cfg.corpus_runs = 20;
    cfg.seed = 101;
    return train_suite(suite(), cfg);
  }();
  return m;
}

TEST(CapacityPlanner, ExpectedDemandBetweenZeroAndPeak) {
  CapacityPlanner planner(&models());
  for (const auto& [name, tg] : models()) {
    const ResourceVector e = planner.expected_demand(name);
    EXPECT_TRUE(e.non_negative()) << name;
    EXPECT_TRUE(e.fits_within(tg.profile().peak_demand +
                              ResourceVector{65, 1, 1, 1}))
        << name;  // loading CPU may exceed execution peak CPU
  }
  EXPECT_THROW(planner.expected_demand("Minecraft"), ContractError);
}

TEST(CapacityPlanner, EmptyMixAlwaysFits) {
  CapacityPlanner planner(&models());
  EXPECT_TRUE(planner.mix_fits({}, hw::baseline_sku()));
}

TEST(CapacityPlanner, HeavyPairDoesNotFitLightPairDoes) {
  CapacityPlanner planner(&models());
  const auto sku = hw::baseline_sku();
  // Genshin + DMC: both heavy → no.
  EXPECT_FALSE(planner.mix_fits({"Genshin Impact", "Devil May Cry"}, sku));
  // Genshin + Contra: yes (the Fig. 11 light pair).
  EXPECT_TRUE(planner.mix_fits({"Genshin Impact", "Contra"}, sku));
  // DOTA2 + DMC: the hard pair CoCG co-locates.
  EXPECT_TRUE(planner.mix_fits({"DOTA2", "Devil May Cry"}, sku));
}

TEST(CapacityPlanner, MaxConcurrentMonotoneWithSku) {
  CapacityPlanner planner(&models());
  const int base = planner.max_concurrent("Contra", hw::baseline_sku());
  EXPECT_GE(base, 2);
  // A flagship SKU hosts at least as many (capacity same in %, but the
  // planner is SKU-capacity-driven; equal here).
  EXPECT_GE(planner.max_concurrent("Contra", hw::flagship_sku()), base);
  // One heavy title fits exactly once per view.
  EXPECT_EQ(planner.max_concurrent("Devil May Cry", hw::baseline_sku()), 1);
}

TEST(CapacityPlanner, MaximalMixesAreMaximalAndFit) {
  CapacityPlanner planner(&models());
  const auto sku = hw::baseline_sku();
  const auto mixes = planner.maximal_mixes(sku);
  ASSERT_FALSE(mixes.empty());
  std::vector<std::string> names;
  for (const auto& [name, tg] : models()) names.push_back(name);
  for (const auto& mix : mixes) {
    EXPECT_TRUE(planner.mix_fits(mix.games, sku));
    EXPECT_GE(mix.headroom, 0.0);
    // Maximality: adding any title breaks the fit (or hits the bound).
    for (const auto& extra : names) {
      auto bigger = mix.games;
      bigger.push_back(extra);
      EXPECT_FALSE(planner.mix_fits(bigger, sku))
          << "mix extensible by " << extra;
    }
  }
  // Sorted by headroom, descending.
  for (std::size_t i = 1; i < mixes.size(); ++i) {
    EXPECT_GE(mixes[i - 1].headroom, mixes[i].headroom);
  }
}

TEST(CapacityPlanner, PlannerAgreesWithOnlineDistributor) {
  // Cross-validation: a pair the planner approves is admitted by the live
  // CoCG scheduler on an empty server, and vice versa for a rejected one.
  CapacityPlanner planner(&models());
  const auto sku = [] {
    hw::ServerSpec s;
    s.num_gpus = 1;
    return s;
  }();

  auto run_pair = [&](const char* a_name, const char* b_name) {
    OfflineConfig cfg;
    cfg.profiling_runs = 10;
    cfg.corpus_runs = 20;
    cfg.seed = 101;
    platform::PlatformConfig pcfg;
    pcfg.seed = 9;
    pcfg.session.spike_prob = 0.0;
    platform::CloudPlatform cloud(
        pcfg,
        std::make_unique<CocgScheduler>(train_suite(suite(), cfg)));
    cloud.add_server(sku);
    const game::GameSpec* a = nullptr;
    const game::GameSpec* b = nullptr;
    for (const auto& g : suite()) {
      if (g.name == a_name) a = &g;
      if (g.name == b_name) b = &g;
    }
    cloud.submit(a, 0, 1);
    cloud.submit(b, 0, 2);
    cloud.run(30 * 1000);
    return cloud.running_sessions();
  };

  EXPECT_TRUE(planner.mix_fits({"Genshin Impact", "Contra"}, sku));
  EXPECT_EQ(run_pair("Genshin Impact", "Contra"), 2u);

  EXPECT_FALSE(planner.mix_fits({"Genshin Impact", "Devil May Cry"}, sku));
  EXPECT_EQ(run_pair("Genshin Impact", "Devil May Cry"), 1u);
}

TEST(CapacityPlanner, ConfigValidation) {
  EXPECT_THROW(CapacityPlanner(nullptr), ContractError);
  PlannerConfig bad;
  bad.capacity_limit = 0.0;
  EXPECT_THROW(CapacityPlanner(&models(), bad), ContractError);
}

}  // namespace
}  // namespace cocg::core
