// Unit-level behaviour of the §V baseline schedulers, beyond the platform
// integration tests in test_schedulers.cpp.
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/baselines.h"
#include "core/offline.h"
#include "game/library.h"
#include "platform/cloud_platform.h"

namespace cocg::core {
namespace {

const std::vector<game::GameSpec>& suite() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

std::map<std::string, TrainedGame> models(std::uint64_t seed = 71) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 20;
  cfg.seed = seed;
  return train_suite(suite(), cfg);
}

platform::PlatformConfig quiet(std::uint64_t seed) {
  platform::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.session.spike_prob = 0.0;
  return cfg;
}

// --- VBP ---

TEST(VbpUnit, ReservationFractionConfigurable) {
  VbpConfig cfg;
  cfg.reserve_fraction = 0.5;
  auto m = models();
  const double peak = m.at("Contra").profile().peak_demand.gpu();
  platform::CloudPlatform cloud(
      quiet(1), std::make_unique<VbpScheduler>(std::move(m), cfg));
  cloud.add_server(hw::ServerSpec{});
  static const auto contra = game::make_contra();
  cloud.submit(&contra, 0, 1);
  cloud.run(10 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  EXPECT_NEAR(cloud.session_info(cloud.session_ids()[0]).allocation.gpu(),
              0.5 * peak, 1e-9);
}

TEST(VbpUnit, RejectsInvalidFraction) {
  VbpConfig bad;
  bad.reserve_fraction = 0.0;
  EXPECT_THROW(VbpScheduler(models(), bad), ContractError);
  bad.reserve_fraction = 1.5;
  EXPECT_THROW(VbpScheduler(models(), bad), ContractError);
}

TEST(VbpUnit, NeverReallocates) {
  platform::CloudPlatform cloud(quiet(2),
                                std::make_unique<VbpScheduler>(models()));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(10 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  const double before = cloud.session_info(sid).allocation.gpu();
  cloud.run(3 * 60 * 1000);
  if (cloud.running_sessions() == 1u) {
    EXPECT_EQ(cloud.session_info(sid).allocation.gpu(), before);
  }
}

TEST(VbpUnit, PacksSecondGpuBeforeRejecting) {
  platform::CloudPlatform cloud(quiet(3),
                                std::make_unique<VbpScheduler>(models()));
  // Two GPUs. The titles' 90%-of-peak CPU reservations sum to within a
  // tenth of a point of the default 100% CPU pool, so whether they fit it
  // turns on the training draw; a larger pool leaves the GPUs to decide.
  hw::ServerSpec spec;
  spec.cpu_capacity_pct = 150.0;
  cloud.add_server(spec);
  static const auto genshin = game::make_genshin();
  static const auto dmc = game::make_devil_may_cry();
  cloud.submit(&genshin, 0, 1);
  cloud.submit(&dmc, 0, 2);
  cloud.run(20 * 1000);
  // Won't share one GPU, but the second GPU hosts the second title.
  EXPECT_EQ(cloud.running_sessions(), 2u);
  std::set<int> gpus;
  for (SessionId sid : cloud.session_ids()) {
    gpus.insert(cloud.session_info(sid).gpu_index);
  }
  EXPECT_EQ(gpus.size(), 2u);
}

// --- GAugur ---

TEST(GaugurUnit, FixedLimitFormula) {
  GaugurConfig cfg;
  cfg.gap_share = 0.5;
  auto m = models();
  // Compute the expected value from the profile directly.
  const auto& profile = m.at("Genshin Impact").profile();
  ResourceVector mean;
  int n = 0;
  for (const auto& st : profile.stage_types) {
    if (st.loading) continue;
    mean += st.mean_demand;
    ++n;
  }
  mean *= 1.0 / n;
  const double expect_gpu =
      mean.gpu() + 0.5 * (profile.peak_demand.gpu() - mean.gpu());
  GaugurScheduler g(std::move(m), cfg);
  EXPECT_NEAR(g.fixed_limit("Genshin Impact").gpu(), expect_gpu, 1e-9);
}

TEST(GaugurUnit, UnknownGameThrowsOnLimitLookup) {
  GaugurScheduler g(models());
  EXPECT_THROW(g.fixed_limit("Minecraft"), ContractError);
}

TEST(GaugurUnit, GapShareZeroMeansMeanAllocation) {
  GaugurConfig cfg;
  cfg.gap_share = 0.0;
  auto m = models();
  const auto& profile = m.at("DOTA2").profile();
  GaugurScheduler g(std::move(m), cfg);
  // With gap_share 0 the limit is strictly below the peak.
  EXPECT_LT(g.fixed_limit("DOTA2").gpu(), profile.peak_demand.gpu());
}

TEST(GaugurUnit, FixedLimitNeverChangesAtRuntime) {
  platform::CloudPlatform cloud(
      quiet(4), std::make_unique<GaugurScheduler>(models()));
  cloud.add_server(hw::ServerSpec{});
  static const auto dota2 = game::make_dota2();
  cloud.submit(&dota2, 0, 1);
  cloud.run(10 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  const double before = cloud.session_info(sid).allocation.gpu();
  cloud.run(4 * 60 * 1000);
  if (cloud.running_sessions() == 1u) {
    EXPECT_EQ(cloud.session_info(sid).allocation.gpu(), before);
  }
}

// --- Improved (reactive) ---

TEST(ImprovedUnit, ConfigValidation) {
  ImprovedConfig bad;
  bad.headroom = 0.5;
  EXPECT_THROW(ImprovedScheduler(models(), bad), ContractError);
  bad.headroom = 1.1;
  bad.window = 0;
  EXPECT_THROW(ImprovedScheduler(models(), bad), ContractError);
}

TEST(ImprovedUnit, TracksUsageWithHeadroom) {
  ImprovedConfig cfg;
  cfg.headroom = 1.5;
  platform::CloudPlatform cloud(
      quiet(5), std::make_unique<ImprovedScheduler>(models(), cfg));
  cloud.add_server(hw::ServerSpec{});
  static const auto contra = game::make_contra();
  cloud.submit(&contra, 0, 1);
  cloud.run(60 * 1000);  // well inside the first level
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  const auto& samples = cloud.session_samples(sid);
  ASSERT_FALSE(samples.empty());
  const double usage = samples.back().usage.gpu();
  const double alloc = cloud.session_info(sid).allocation.gpu();
  // Allocation ~ headroom × recent usage (within noise/lag tolerance).
  EXPECT_NEAR(alloc, 1.5 * usage, 0.5 * usage);
}

TEST(ImprovedUnit, ReactsLateToStageRise) {
  // The scheme's defining weakness: on a loading→execution transition the
  // allocation still reflects loading usage until the next control tick,
  // so the first execution seconds run under-provisioned.
  platform::CloudPlatform cloud(
      quiet(6), std::make_unique<ImprovedScheduler>(models()));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(1000);  // admit
  ASSERT_EQ(cloud.running_sessions(), 1u);
  // Run until the session leaves its first loading stage.
  bool was_loading = false, squeezed_after_rise = false;
  for (int step = 0; step < 120 && cloud.running_sessions() == 1; ++step) {
    cloud.run(1000);
    const SessionId sid = cloud.session_ids()[0];
    const auto& truth = cloud.session_truth(sid);
    if (truth.stage_kind() == game::StageKind::kLoading) {
      was_loading = true;
    } else if (was_loading) {
      // First execution tick after loading: allocation was set from
      // loading-time usage (low GPU) — strictly below the stage demand.
      const double alloc = cloud.session_info(sid).allocation.gpu();
      if (alloc < 0.9 * truth.demand().gpu()) squeezed_after_rise = true;
      break;
    }
  }
  EXPECT_TRUE(was_loading);
  EXPECT_TRUE(squeezed_after_rise);
}

}  // namespace
}  // namespace cocg::core
