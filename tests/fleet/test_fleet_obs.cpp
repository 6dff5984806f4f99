// Fleet-level observability: merged SLO attainment and stage costs in the
// report (struct + canonical JSON), profiler counters in merged metrics,
// and the health snapshot stream.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "traffic/generator.h"

namespace cocg::fleet {
namespace {

class GreedyScheduler final : public platform::Scheduler {
 public:
  std::string name() const override { return "greedy"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView& view,
      const platform::GameRequest& req) override {
    (void)req;
    const ResourceVector alloc{60, 90, 4000, 4000};
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

std::unique_ptr<Fleet> make_fleet(int shards, int threads,
                                  std::uint64_t seed = 7) {
  static const auto contra = game::make_contra();
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = seed;
  auto f = std::make_unique<Fleet>(
      cfg, [](int) { return std::make_unique<GreedyScheduler>(); });
  for (int s = 0; s < 2 * shards; ++s) f->add_server(hw::ServerSpec{});
  f->add_trace_arrivals(traffic::generate_trace(traffic::per_game_poisson(
                            {&contra}, 240.0, 60 * 60 * 1000, seed)),
                        {&contra}, /*use_recorded_routing=*/false);
  return f;
}

TEST(FleetObs, ReportCarriesMergedSloAttainment) {
  auto f = make_fleet(2, 1);
  f->run(30 * 60 * 1000);
  const FleetReport rep = f->report();
  ASSERT_GT(rep.completed, 0u);
  ASSERT_EQ(rep.slo.size(), platform::default_slo_classes().size());
  // Every completed run lands in exactly one class, and the merged rows
  // equal the sum of the shard trackers.
  std::uint64_t slo_runs = 0;
  for (const auto& row : rep.slo) slo_runs += row.runs;
  EXPECT_EQ(slo_runs, rep.completed);
  std::uint64_t shard_runs = 0;
  for (int i = 0; i < f->num_shards(); ++i) {
    for (const auto& row : f->shard(i).slo_tracker().attainment()) {
      shard_runs += row.runs;
    }
  }
  EXPECT_EQ(shard_runs, slo_runs);
}

TEST(FleetObs, ReportJsonCarriesSloAndStageCostSections) {
  auto f = make_fleet(2, 1);
  f->run(20 * 60 * 1000);
  const std::string json = report_json(f->report());
  EXPECT_NE(json.find("\"slo\":[{\"class\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage_costs\":[{\"stage\":\"rng_draws\""),
            std::string::npos)
      << json;
  // Profiling was off: the schema is stable, the costs are zero.
  EXPECT_NE(json.find("{\"stage\":\"router\",\"calls\":0,\"total_ns\":0}"),
            std::string::npos)
      << json;
}

TEST(FleetObs, ProfiledRunMergesCoordinatorAndShardStages) {
  obs::reset();
  obs::set_enabled(true);
  obs::set_profiling_enabled(true);
  auto f = make_fleet(2, 2);
  f->run(20 * 60 * 1000);
  const obs::StageProfile prof = f->merged_stage_profile();
  using obs::Stage;
  auto calls = [&](Stage s) {
    return prof[static_cast<std::size_t>(s)].calls;
  };
  // Coordinator-side stages: one router decision per arrival, one barrier
  // per epoch.
  EXPECT_EQ(calls(Stage::kRouter), f->arrivals_generated());
  EXPECT_GT(calls(Stage::kShardBarrier), 0u);
  // Shard-side stages flow in through the per-shard domain profilers.
  EXPECT_GT(calls(Stage::kEventQueue), 0u);
  EXPECT_GT(calls(Stage::kResourceKernels), 0u);

  // The same merged table rides the report and the merged metrics.
  const FleetReport rep = f->report();
  EXPECT_EQ(rep.stage_costs[static_cast<std::size_t>(Stage::kRouter)].calls,
            f->arrivals_generated());
  obs::MetricsRegistry merged;
  f->merge_metrics(merged);
  EXPECT_EQ(merged.counter_value("profiler.router.calls"),
            f->arrivals_generated());
  obs::set_profiling_enabled(false);
  obs::set_enabled(false);
  obs::reset();
}

TEST(FleetObs, HealthStreamEmitsParseableSnapshots) {
  auto f = make_fleet(3, 2);
  std::ostringstream health;
  // Period 0: one snapshot per epoch barrier.
  f->enable_health_stream(&health, 0);
  const DurationMs horizon = 10 * 60 * 1000;
  f->run(horizon);

  const DurationMs epoch = f->config().platform.control_period_ms;
  const std::size_t expected_lines =
      static_cast<std::size_t>((horizon + epoch - 1) / epoch);
  std::istringstream is(health.str());
  std::string line;
  std::size_t lines = 0;
  TimeMs last_t = -1;
  while (std::getline(is, line)) {
    ++lines;
    obs::JsonValue doc;
    ASSERT_TRUE(obs::json_parse(line, doc)) << line;
    const auto t = static_cast<TimeMs>(doc.get_number("t_ms"));
    EXPECT_GT(t, last_t);
    last_t = t;
    const obs::JsonValue* shards = doc.find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->array.size(), 3u);
    const obs::JsonValue* slo = doc.find("slo");
    ASSERT_NE(slo, nullptr);
    EXPECT_EQ(slo->array.size(), platform::default_slo_classes().size());
    const obs::JsonValue* stages = doc.find("stage_costs");
    ASSERT_NE(stages, nullptr);
    EXPECT_EQ(stages->array.size(), obs::kNumStages);
  }
  EXPECT_EQ(lines, expected_lines);
  EXPECT_EQ(last_t, horizon);
}

TEST(FleetObs, HealthStreamHonorsPeriod) {
  auto f = make_fleet(2, 1);
  std::ostringstream health;
  f->enable_health_stream(&health, 60 * 1000);  // one line per sim-minute
  f->run(10 * 60 * 1000);
  std::istringstream is(health.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 10u);
}

}  // namespace
}  // namespace cocg::fleet
