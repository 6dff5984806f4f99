#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.h"
#include "core/baselines.h"
#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "game/library.h"
#include "platform/cloud_platform.h"

namespace cocg::core {
namespace {

/// Static suite so GameSpec pointers stay valid for the whole binary.
const std::vector<game::GameSpec>& suite() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

std::map<std::string, TrainedGame> small_models(std::uint64_t seed = 31) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 30;
  cfg.seed = seed;
  return train_suite(suite(), cfg);
}

platform::PlatformConfig quiet_platform(std::uint64_t seed = 1) {
  platform::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.session.spike_prob = 0.0;
  return cfg;
}

// --- VBP ---

TEST(Vbp, ReservesNinetyPercentOfPeak) {
  auto models = small_models();
  const ResourceVector peak =
      models.at("Genshin Impact").profile().peak_demand;
  platform::CloudPlatform cloud(
      quiet_platform(),
      std::make_unique<VbpScheduler>(std::move(models)));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(10 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const auto info = cloud.session_info(cloud.session_ids()[0]);
  EXPECT_NEAR(info.allocation.gpu(), 0.9 * peak.gpu(), 1e-9);
  EXPECT_NEAR(info.allocation.cpu(), 0.9 * peak.cpu(), 1e-9);
}

TEST(Vbp, RefusesWhenReservationDoesNotFit) {
  platform::CloudPlatform cloud(
      quiet_platform(2), std::make_unique<VbpScheduler>(small_models()));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  static const auto genshin = game::make_genshin();
  static const auto dmc = game::make_devil_may_cry();
  cloud.submit(&genshin, 0, 1);
  cloud.submit(&dmc, 0, 2);
  cloud.run(20 * 1000);
  // Genshin reserves ~70% GPU; DMC's ~68% cannot co-locate under VBP.
  EXPECT_EQ(cloud.running_sessions(), 1u);
  EXPECT_EQ(cloud.queued_requests(), 1u);
}

// --- GAugur ---

TEST(Gaugur, FixedLimitBetweenMeanAndPeak) {
  auto models = small_models();
  GaugurScheduler g(std::move(models));
  const ResourceVector limit = g.fixed_limit("DOTA2");
  auto models2 = small_models();
  const auto& profile = models2.at("DOTA2").profile();
  EXPECT_LT(limit.gpu(), profile.peak_demand.gpu());
  EXPECT_GT(limit.gpu(), 0.0);
}

TEST(Gaugur, RefusesHeavyPairOnOneGpu) {
  platform::CloudPlatform cloud(
      quiet_platform(3),
      std::make_unique<GaugurScheduler>(small_models()));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  static const auto genshin = game::make_genshin();
  static const auto dmc = game::make_devil_may_cry();
  cloud.submit(&genshin, 0, 1);
  cloud.submit(&dmc, 2, 2);
  cloud.run(20 * 1000);
  // Fixed limits of the two heavy titles exceed one GPU together.
  EXPECT_EQ(cloud.running_sessions(), 1u);
}

TEST(Gaugur, AdmitsLightPair) {
  platform::CloudPlatform cloud(
      quiet_platform(4),
      std::make_unique<GaugurScheduler>(small_models()));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  static const auto contra = game::make_contra();
  static const auto dota2 = game::make_dota2();
  cloud.submit(&contra, 0, 1);
  cloud.submit(&dota2, 1, 2);  // arcade script, light
  cloud.run(20 * 1000);
  EXPECT_EQ(cloud.running_sessions(), 2u);
}

// --- Improved (reactive) ---

TEST(Improved, ReallocatesTowardObservedUsage) {
  platform::CloudPlatform cloud(
      quiet_platform(5),
      std::make_unique<ImprovedScheduler>(small_models()));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(10 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  const double alloc_loading = cloud.session_info(sid).allocation.gpu();
  // Run until well inside the first execution stage; the reactive
  // controller follows the higher observed GPU usage.
  cloud.run(120 * 1000);
  if (cloud.running_sessions() == 1u) {
    const double alloc_exec = cloud.session_info(sid).allocation.gpu();
    EXPECT_GT(alloc_exec, alloc_loading);
  }
}

// --- CoCG ---

TEST(Cocg, RequiresModels) {
  EXPECT_THROW(CocgScheduler({}, CocgConfig{}), ContractError);
}

TEST(Cocg, AdmitsAndTracksSessions) {
  auto sched = std::make_unique<CocgScheduler>(small_models());
  auto* sched_ptr = sched.get();
  platform::CloudPlatform cloud(quiet_platform(6), std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(30 * 1000);
  EXPECT_EQ(cloud.running_sessions(), 1u);
  EXPECT_EQ(sched_ptr->total_callbacks(), 0);  // quiet run, no transients
}

TEST(Cocg, AllocationFollowsStages) {
  platform::CloudPlatform cloud(
      quiet_platform(7),
      std::make_unique<CocgScheduler>(small_models()));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  // Collect the allocation over time; it must change as stages change
  // (fine-grained allocation, unlike VBP's constant reservation).
  std::set<long> distinct_gpu_allocs;
  for (int step = 0; step < 60; ++step) {
    cloud.run(10 * 1000);
    if (cloud.running_sessions() == 0) break;
    const auto info = cloud.session_info(cloud.session_ids()[0]);
    distinct_gpu_allocs.insert(std::lround(info.allocation.gpu()));
  }
  EXPECT_GE(distinct_gpu_allocs.size(), 2u);
}

TEST(Cocg, CoLocatesComplementaryPairOnOneGpu) {
  platform::CloudPlatform cloud(
      quiet_platform(8),
      std::make_unique<CocgScheduler>(small_models()));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  static const auto genshin = game::make_genshin();
  static const auto dota2 = game::make_dota2();
  cloud.add_source({&genshin, 1, 4});
  cloud.add_source({&dota2, 1, 4});
  cloud.run(5 * 60 * 1000);
  // CoCG's fine-grained admission gets both running together.
  EXPECT_EQ(cloud.running_sessions(), 2u);
}

TEST(Cocg, ThroughputBeatsVbpOnPairWorkload) {
  auto run_with = [&](std::unique_ptr<platform::Scheduler> sched) {
    platform::CloudPlatform cloud(quiet_platform(9), std::move(sched));
    hw::ServerSpec one_gpu;
    one_gpu.num_gpus = 1;
    cloud.add_server(one_gpu);
    static const auto genshin = game::make_genshin();
    static const auto dota2 = game::make_dota2();
    cloud.add_source({&genshin, 1, 4});
    cloud.add_source({&dota2, 1, 4});
    cloud.run(40 * 60 * 1000);
    return cloud.throughput();
  };
  const double t_cocg =
      run_with(std::make_unique<CocgScheduler>(small_models(41)));
  const double t_vbp =
      run_with(std::make_unique<VbpScheduler>(small_models(41)));
  EXPECT_GE(t_cocg, t_vbp);
}

TEST(Cocg, RegulatorHoldsLoadingUnderPressure) {
  CocgConfig cfg;
  cfg.regulator.capacity_limit = 0.5;  // force pressure early
  platform::CloudPlatform cloud(
      quiet_platform(10),
      std::make_unique<CocgScheduler>(small_models(), cfg));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  static const auto contra = game::make_contra();
  static const auto dota2 = game::make_dota2();
  cloud.submit(&dota2, 1, 1);
  cloud.submit(&contra, 0, 2);
  cloud.run(3 * 60 * 1000);
  // With a 50% limit the two games' combined provisioning exceeds the
  // limit whenever either pre-provisions an execution stage; at least one
  // loading stage must have been stretched or a session kept queued.
  bool any_extension = false;
  for (const auto& run : cloud.completed_runs()) {
    if (run.loading_extension_ms > 0) any_extension = true;
  }
  for (SessionId sid : cloud.session_ids()) {
    if (cloud.session_truth(sid).loading_extension_ms() > 0) {
      any_extension = true;
    }
  }
  EXPECT_TRUE(any_extension || cloud.queued_requests() > 0);
}

TEST(Cocg, SessionStateCleanedUpOnEnd) {
  auto sched = std::make_unique<CocgScheduler>(small_models());
  auto* sched_ptr = sched.get();
  platform::CloudPlatform cloud(quiet_platform(11), std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  static const auto contra = game::make_contra();
  cloud.submit(&contra, 0, 1);
  cloud.run(20 * 60 * 1000);  // far beyond one Contra run
  EXPECT_GE(cloud.completed_runs().size(), 1u);
  EXPECT_EQ(cloud.running_sessions(), 0u);
  EXPECT_EQ(sched_ptr->total_callbacks(), 0);  // state map empty again
}

TEST(Cocg, UntrainedGameStaysQueued) {
  // Train only Contra; submit Genshin → no model → request remains queued.
  OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 10;
  std::vector<game::GameSpec> just_contra = {game::make_contra()};
  static const std::vector<game::GameSpec> keep = just_contra;
  auto models = train_suite(keep, cfg);
  platform::CloudPlatform cloud(
      quiet_platform(12),
      std::make_unique<CocgScheduler>(std::move(models)));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(30 * 1000);
  EXPECT_EQ(cloud.running_sessions(), 0u);
  EXPECT_EQ(cloud.queued_requests(), 1u);
}

}  // namespace
}  // namespace cocg::core
