// Determinism regression tests for the zero-allocation hot path.
//
// The dense SessionTable, scratch arenas and batched RNG draws must not
// change a single bit of observable output: the same seed has to produce
// byte-identical reports and event logs whether the simulation runs in one
// shot, in split-phase chunks, or sharded across fleet worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/obs.h"
#include "platform/cloud_platform.h"
#include "traffic/generator.h"

namespace cocg::platform {
namespace {

class GreedyScheduler final : public Scheduler {
 public:
  explicit GreedyScheduler(ResourceVector alloc = {60, 90, 4000, 4000})
      : alloc_(alloc) {}

  std::string name() const override { return "greedy"; }

  std::optional<Placement> admit(PlatformView& view,
                                 const GameRequest& req) override {
    (void)req;
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        if (alloc_.fits_within(srv.free_on_gpu(g))) {
          return Placement{server, g, alloc_};
        }
      }
    }
    return std::nullopt;
  }

 private:
  ResourceVector alloc_;
};

PlatformConfig scenario_config(std::uint64_t seed) {
  PlatformConfig cfg;
  cfg.seed = seed;
  return cfg;  // spikes left on: exercises the session RNG path too
}

/// Canonical byte-exact dump of everything an experiment reports: every
/// CompletedRun field (doubles in hexfloat), per-game stats, throughput,
/// plus the obs metrics JSON and decision-event JSONL.
std::string run_report(const CloudPlatform& cloud) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& r : cloud.completed_runs()) {
    os << r.sid.value << ',' << r.game << ',' << r.script_idx << ','
       << r.start << ',' << r.end << ',' << r.duration_ms << ',' << r.wait_ms
       << ',' << r.qos_violation_ms << ',' << r.loading_extension_ms << ','
       << r.mean_fps_ratio << ',' << r.mean_fps << ',' << r.mean_latency_ms
       << ',' << r.max_latency_ms << ',' << r.latency_violation_ms << '\n';
  }
  for (const auto& [game, gs] : cloud.game_stats()) {
    os << game << ':' << gs.completed << ',' << gs.total_duration_s << ','
       << gs.mean_fps_ratio << ',' << gs.qos_violation_s << ','
       << gs.mean_wait_s << '\n';
  }
  os << "T=" << cloud.throughput() << '\n';
  obs::metrics().write_json(os);
  obs::events().write_jsonl(os);
  return os.str();
}

/// Run the standard scenario: two servers, two closed-loop sources, 30
/// simulated minutes. `chunk_ms` == 0 runs in one shot via run(); otherwise
/// the split-phase API advances in chunks of that size.
std::string run_scenario(std::uint64_t seed, DurationMs chunk_ms) {
  static const auto contra = game::make_contra();
  static const auto dota = game::make_dota2();
  obs::reset();
  obs::set_enabled(true);
  CloudPlatform cloud(scenario_config(seed),
                      std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 2, 4});
  cloud.add_source({&dota, 1, 4});
  const DurationMs horizon = 30 * 60 * 1000;
  if (chunk_ms == 0) {
    cloud.run(horizon);
  } else {
    cloud.begin(horizon);
    TimeMs t = 0;
    while (t < cloud.horizon()) {
      t = std::min<TimeMs>(t + chunk_ms, cloud.horizon());
      cloud.advance_until(t);
    }
    cloud.finish();
  }
  std::string out = run_report(cloud);
  obs::set_enabled(false);
  return out;
}

TEST(Determinism, SameSeedSameBytes) {
  const std::string a = run_scenario(1234, 0);
  const std::string b = run_scenario(1234, 0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedDiverges) {
  EXPECT_NE(run_scenario(1234, 0), run_scenario(4321, 0));
}

TEST(Determinism, SplitPhaseChunksMatchOneShot) {
  const std::string one_shot = run_scenario(77, 0);
  // Chunk sizes that land both on and off tick boundaries.
  EXPECT_EQ(one_shot, run_scenario(77, 5000));
  EXPECT_EQ(one_shot, run_scenario(77, 1700));
}

std::string run_fleet(int threads) {
  static const auto contra = game::make_contra();
  fleet::FleetConfig cfg;
  cfg.shards = 3;
  cfg.threads = threads;
  cfg.seed = 99;
  auto f = std::make_unique<fleet::Fleet>(
      cfg, [](int) { return std::make_unique<GreedyScheduler>(); });
  for (int s = 0; s < 6; ++s) f->add_server(hw::ServerSpec{});
  f->add_trace_arrivals(traffic::generate_trace(traffic::per_game_poisson(
                            {&contra}, 240.0, 20 * 60 * 1000, cfg.seed)),
                        {&contra}, /*use_recorded_routing=*/false);
  f->run(20 * 60 * 1000);
  return fleet::report_json(f->report()) + f->merged_events_jsonl();
}

TEST(Determinism, FleetSplitPhaseIdenticalAcrossThreads) {
  const std::string one = run_fleet(1);
  const std::string two = run_fleet(2);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
}

/// Same property with the stage profiler on: under the deterministic
/// clock, stage costs are a pure function of each profiler's scope
/// sequence, so the report (which embeds stage_costs) must stay
/// byte-identical for any thread count.
std::string run_fleet_profiled(int threads) {
  obs::reset();
  obs::set_enabled(true);
  obs::set_profiling_enabled(true);
  obs::set_profiler_clock_mode(obs::ProfilerClockMode::kDeterministic);
  std::string out = run_fleet(threads);
  obs::set_profiler_clock_mode(obs::ProfilerClockMode::kWall);
  obs::set_profiling_enabled(false);
  obs::set_enabled(false);
  obs::reset();
  return out;
}

TEST(Determinism, FleetProfiledReportIdenticalAcrossThreads) {
  const std::string one = run_fleet_profiled(1);
  const std::string two = run_fleet_profiled(2);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  // The profiled report actually carries non-zero stage costs.
  EXPECT_EQ(one.find("{\"stage\":\"event_queue\",\"calls\":0"),
            std::string::npos);
}

}  // namespace
}  // namespace cocg::platform
