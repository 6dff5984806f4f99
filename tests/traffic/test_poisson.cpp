// Open-loop Poisson arrivals (traffic::PoissonSource), alone and feeding a
// platform through schedule_request.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "core/baselines.h"
#include "core/offline.h"
#include "game/library.h"
#include "platform/cloud_platform.h"
#include "traffic/source.h"

namespace cocg::traffic {
namespace {

std::unique_ptr<platform::Scheduler> vbp() {
  static const std::vector<game::GameSpec> suite = {game::make_contra()};
  core::OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 10;
  return std::make_unique<core::VbpScheduler>(
      core::train_suite(suite, cfg));
}

platform::PlatformConfig quiet(std::uint64_t seed) {
  platform::PlatformConfig cfg;
  cfg.seed = seed;
  cfg.session.spike_prob = 0.0;
  return cfg;
}

TEST(OpenLoop, ArrivalRateApproximatelyRespected) {
  static const auto contra = game::make_contra();
  PoissonSource poisson(1);
  OpenLoopSource src;
  src.spec = &contra;
  src.arrivals_per_hour = 60.0;  // one per minute
  poisson.add_stream(src);
  std::vector<Arrival> out;
  poisson.generate(0, 2LL * 60 * 60 * 1000, out);  // 2 hours → ~120
  EXPECT_NEAR(static_cast<double>(out.size()), 120.0, 35.0);
}

TEST(OpenLoop, QueueGrowsUnderOverload) {
  static const auto contra = game::make_contra();
  platform::CloudPlatform cloud(quiet(2), vbp());
  hw::ServerSpec tiny;
  tiny.num_gpus = 1;
  cloud.add_server(tiny);
  PoissonSource poisson(2);
  OpenLoopSource src;
  src.spec = &contra;
  // Contra runs ~6 min and VBP hosts a handful at once; 300/h overwhelms.
  src.arrivals_per_hour = 300.0;
  poisson.add_stream(src);
  std::vector<Arrival> arrivals;
  poisson.generate(0, 60 * 60 * 1000, arrivals);
  for (const auto& a : arrivals) {
    cloud.schedule_request(a.spec, a.script_idx, a.player_id, a.at);
  }
  cloud.run(60 * 60 * 1000);
  EXPECT_GT(cloud.queued_requests(), 10u);
  EXPECT_GT(cloud.completed_runs().size(), 3u);  // service still progresses
}

TEST(OpenLoop, NoArrivalsAfterZeroSources) {
  PoissonSource poisson(3);
  std::vector<Arrival> out;
  poisson.generate(0, 10 * 60 * 1000, out);
  EXPECT_EQ(poisson.num_streams(), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(OpenLoop, AbuttingWindowsMatchOneWindow) {
  static const auto contra = game::make_contra();
  const OpenLoopSource src{&contra, 120.0, 16};
  PoissonSource whole(4);
  PoissonSource split(4);
  whole.add_stream(src);
  split.add_stream(src);
  std::vector<Arrival> one;
  whole.generate(0, 60 * 60 * 1000, one);
  std::vector<Arrival> many;
  for (TimeMs t = 0; t < 60 * 60 * 1000; t += 2 * 60 * 1000) {
    split.generate(t, t + 2 * 60 * 1000, many);  // 30 windows
  }
  ASSERT_FALSE(one.empty());
  ASSERT_EQ(many.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(many[i].at, one[i].at) << "arrival " << i;
    EXPECT_EQ(many[i].spec, one[i].spec) << "arrival " << i;
    EXPECT_EQ(many[i].script_idx, one[i].script_idx) << "arrival " << i;
    EXPECT_EQ(many[i].player_id, one[i].player_id) << "arrival " << i;
    EXPECT_EQ(many[i].profile, one[i].profile) << "arrival " << i;
    EXPECT_EQ(many[i].expected_session_ms, one[i].expected_session_ms)
        << "arrival " << i;
  }
}

TEST(OpenLoop, ConfigValidation) {
  PoissonSource poisson(5);
  OpenLoopSource bad;
  bad.spec = nullptr;
  EXPECT_THROW(poisson.add_stream(bad), ContractError);
  static const auto contra = game::make_contra();
  bad.spec = &contra;
  bad.arrivals_per_hour = 0.0;
  EXPECT_THROW(poisson.add_stream(bad), ContractError);
  EXPECT_EQ(poisson.num_streams(), 0u);
}

}  // namespace
}  // namespace cocg::traffic
