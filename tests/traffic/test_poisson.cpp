// Open-loop Poisson load (traffic::per_game_poisson), alone and feeding a
// platform through schedule_request.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/baselines.h"
#include "core/offline.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "platform/cloud_platform.h"
#include "traffic/generator.h"
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

const game::GameSpec& contra() {
  static const game::GameSpec g = game::make_contra();
  return g;
}

TEST(OpenLoop, ArrivalRateApproximatelyRespected) {
  // One per minute per game, two games, two hours → ~240.
  static const auto csgo = game::make_csgo();
  const Trace t = generate_trace(
      per_game_poisson({&contra(), &csgo}, 60.0, 2LL * 60 * 60 * 1000, 1));
  EXPECT_NEAR(static_cast<double>(t.events.size()), 240.0, 50.0);
  std::size_t contra_events = 0;
  for (const auto& e : t.events) contra_events += e.game == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(contra_events), 120.0, 35.0);
}

TEST(OpenLoop, QueueGrowsUnderOverload) {
  platform::CloudPlatform cloud(quiet(2), vbp());
  hw::ServerSpec tiny;
  tiny.num_gpus = 1;
  cloud.add_server(tiny);
  // Contra runs ~6 min and VBP hosts a handful at once; 300/h overwhelms.
  RegionTable regions;
  const auto arrivals = bind_trace(
      generate_trace(per_game_poisson({&contra()}, 300.0, 60 * 60 * 1000, 2)),
      {&contra()}, regions);
  for (const auto& a : arrivals) {
    cloud.schedule_request(a.spec, a.script_idx, a.player_id, a.at);
  }
  cloud.run(60 * 60 * 1000);
  EXPECT_GT(cloud.queued_requests(), 10u);
  EXPECT_GT(cloud.completed_runs().size(), 3u);  // service still progresses
}

// A fleet given no trace routes nothing: every arrival enters through
// add_trace_arrivals.
TEST(OpenLoop, NoArrivalsAfterZeroSources) {
  fleet::Fleet f(fleet::FleetConfig{}, [](int) { return vbp(); });
  f.add_server(hw::ServerSpec{});
  f.run(10 * 60 * 1000);
  EXPECT_EQ(f.arrivals_generated(), 0u);
  EXPECT_EQ(f.report().arrivals, 0u);
}

// A trace generated for a longer horizon starts with the shorter one's
// events, so load generated past a run's end never changes what the run
// sees.
TEST(OpenLoop, AbuttingWindowsMatchOneWindow) {
  const Trace hour =
      generate_trace(per_game_poisson({&contra()}, 120.0, 60 * 60 * 1000, 4));
  const Trace two_hours = generate_trace(
      per_game_poisson({&contra()}, 120.0, 2LL * 60 * 60 * 1000, 4));
  ASSERT_FALSE(hour.events.empty());
  ASSERT_GT(two_hours.events.size(), hour.events.size());
  for (std::size_t i = 0; i < hour.events.size(); ++i) {
    EXPECT_EQ(two_hours.events[i], hour.events[i]) << "arrival " << i;
  }
  EXPECT_GE(two_hours.events[hour.events.size()].t, 60 * 60 * 1000);
}

TEST(OpenLoop, ConfigValidation) {
  EXPECT_THROW(generate_trace(per_game_poisson({nullptr}, 60.0, 60'000, 5)),
               std::runtime_error);
  EXPECT_THROW(generate_trace(per_game_poisson({&contra()}, 0.0, 60'000, 5)),
               std::runtime_error);
  EXPECT_THROW(generate_trace(per_game_poisson({}, 60.0, 60'000, 5)),
               std::runtime_error);
}

}  // namespace
}  // namespace cocg::traffic
