// Failure injection and robustness: heavy measurement noise, demand
// spikes, tiny training corpora, and pathological scheduler configs must
// degrade gracefully, never crash or wedge the platform.
#include <gtest/gtest.h>

#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "game/library.h"
#include "platform/cloud_platform.h"

namespace cocg::core {
namespace {

const std::vector<game::GameSpec>& suite() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

std::map<std::string, TrainedGame> tiny_models(std::uint64_t seed = 61) {
  OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 15;
  cfg.seed = seed;
  return train_suite(suite(), cfg);
}

TEST(Robustness, HeavyMeasurementNoiseStillSchedules) {
  platform::PlatformConfig pcfg;
  pcfg.seed = 1;
  pcfg.measurement_noise_rel = 0.15;  // 7x the default probe noise
  platform::CloudPlatform cloud(
      pcfg, std::make_unique<CocgScheduler>(tiny_models()));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&suite()[4], 1, 4});  // Contra
  cloud.run(25 * 60 * 1000);
  EXPECT_GE(cloud.completed_runs().size(), 1u);
}

TEST(Robustness, AggressiveSpikesTriggerCallbacksNotCrashes) {
  platform::PlatformConfig pcfg;
  pcfg.seed = 2;
  pcfg.session.spike_prob = 0.05;  // 25x the default
  pcfg.session.spike_factor = 1.6;
  auto sched = std::make_unique<CocgScheduler>(tiny_models());
  auto* sched_ptr = sched.get();
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&suite()[2], 1, 4});  // Genshin
  cloud.run(20 * 60 * 1000);
  // The run proceeds; transients are absorbed by pending-jump guards and
  // rehearsal callbacks rather than crashing the monitor.
  EXPECT_GE(cloud.completed_runs().size() + cloud.running_sessions(), 1u);
  (void)sched_ptr->total_callbacks();  // accessible, non-throwing
}

TEST(Robustness, TinyCorpusPredictorStillWorks) {
  OfflineConfig cfg;
  cfg.profiling_runs = 2;
  cfg.corpus_runs = 0;  // profiling runs only
  cfg.seed = 3;
  const TrainedGame tg = train_game(game::make_contra(), cfg);
  EXPECT_TRUE(tg.predictor->active().pooled->trained());
  EXPECT_NO_THROW(tg.predictor->predict_next({}, 1, 0));
  EXPECT_GE(tg.predictor->accuracy(), 0.0);
  EXPECT_LE(tg.predictor->accuracy(), 1.0);
}

TEST(Robustness, ReplaceModelAfterSingleErrorKeepsRunning) {
  CocgConfig cfg;
  cfg.replace_model_after = 1;  // hair-trigger fallback
  auto sched = std::make_unique<CocgScheduler>(tiny_models(62), cfg);
  auto* sched_ptr = sched.get();
  platform::PlatformConfig pcfg;
  pcfg.seed = 4;
  pcfg.session.spike_prob = 0.02;
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&suite()[2], 1, 4});  // Genshin (imperfect predictor)
  cloud.run(30 * 60 * 1000);
  EXPECT_GE(cloud.completed_runs().size() + cloud.running_sessions(), 1u);
  EXPECT_GE(sched_ptr->model_replacements(), 0);
}

TEST(Robustness, ZeroCapacityLimitQueuesEverything) {
  CocgConfig cfg;
  cfg.distributor.capacity_limit = 0.01;
  platform::CloudPlatform cloud(
      platform::PlatformConfig{},
      std::make_unique<CocgScheduler>(tiny_models(63), cfg));
  cloud.add_server(hw::ServerSpec{});
  static const auto genshin = game::make_genshin();
  cloud.submit(&genshin, 0, 1);
  cloud.run(60 * 1000);
  // Even an empty server rejects nothing at the raw-capacity level, so
  // the first game lands; a second must queue under the 1% limit.
  cloud.submit(&genshin, 0, 2);
  cloud.run(60 * 1000);
  EXPECT_EQ(cloud.running_sessions(), 1u);
  EXPECT_EQ(cloud.queued_requests(), 1u);
}

TEST(Robustness, GenerousLimitNeverCrashesUnderOvercommit) {
  CocgConfig cfg;
  cfg.distributor.capacity_limit = 2.0;  // admit far past the hardware
  platform::PlatformConfig pcfg;
  pcfg.seed = 5;
  platform::CloudPlatform cloud(
      pcfg, std::make_unique<CocgScheduler>(tiny_models(64), cfg));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  for (const auto& g : suite()) cloud.add_source({&g, 1, 4});
  cloud.run(15 * 60 * 1000);
  // Massive contention, degraded FPS — but the invariants hold: supply
  // never exceeds hardware, sessions progress or queue.
  cloud.enable_utilization_recording(true);
  cloud.run(60 * 1000);
  for (const auto& up : cloud.utilization_log()) {
    EXPECT_LE(up.max_dim_fraction, 1.0 + 1e-9);
  }
}

TEST(Robustness, StarvedSessionEventuallyRecovers) {
  // The observability trap regression test: a session admitted with a far
  // too small allocation must be probed back to health.
  auto models = tiny_models(65);
  platform::PlatformConfig pcfg;
  pcfg.seed = 6;
  pcfg.session.spike_prob = 0.0;
  auto sched = std::make_unique<CocgScheduler>(std::move(models));
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  static const auto dota2 = game::make_dota2();
  cloud.submit(&dota2, 0, 1);
  cloud.run(30 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  // Sabotage: shrink the allocation to a fifth of any execution demand.
  ASSERT_TRUE(cloud.reallocate(sid, {8, 5, 500, 600}));
  cloud.run(5 * 60 * 1000);
  if (cloud.running_sessions() == 1u) {
    // The saturation probe must have grown the allocation well beyond the
    // sabotaged value.
    const auto info = cloud.session_info(sid);
    EXPECT_GT(info.allocation.gpu(), 10.0);
  }
}

}  // namespace
}  // namespace cocg::core
