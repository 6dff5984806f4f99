// Observability integration tests at the platform layer: the live
// sessions' fixed telemetry window, per-class SLO attainment from
// completed runs, and the stage profiler feeding the metrics snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "game/library.h"
#include "obs/obs.h"
#include "platform/cloud_platform.h"

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
    const ResourceVector alloc = alloc_;
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        if (alloc.fits_within(srv.free_on_gpu(g))) {
          return Placement{server, g, alloc};
        }
      }
    }
    return std::nullopt;
  }

 private:
  ResourceVector alloc_;
};

/// A single-script game whose execution stage outlives any test horizon:
/// sessions reach steady state and never finish, so their live windows can
/// be inspected mid-run via session_samples().
game::GameSpec steady_spec() {
  game::GameSpec spec;
  spec.id = GameId{701};
  spec.name = "SteadyObs";
  spec.category = game::GameCategory::kWeb;

  game::FrameClusterSpec play;
  play.id = 0;
  play.name = "play";
  play.centroid = {10, 20, 820, 450};
  play.jitter = {1, 2, 10, 5};
  spec.clusters.push_back(play);

  game::StageTypeSpec loading;
  loading.id = 0;
  loading.name = "loading";
  loading.kind = game::StageKind::kLoading;
  loading.clusters = {0};
  loading.min_dwell_ms = loading.max_dwell_ms = 5000;
  spec.stage_types.push_back(loading);

  game::StageTypeSpec exec;
  exec.id = 1;
  exec.name = "endless";
  exec.kind = game::StageKind::kExecution;
  exec.clusters = {0};
  exec.min_dwell_ms = exec.max_dwell_ms = 8L * 3600 * 1000;
  spec.stage_types.push_back(exec);

  spec.loading_stage_type = 0;
  game::ScriptSpec script;
  script.name = "steady";
  script.segments.push_back(game::ScriptSegment{1, 1, 1, 0.0});
  spec.scripts.push_back(script);
  return spec;
}

/// Four never-ending sessions on one server, advanced to `until_ms`.
std::unique_ptr<CloudPlatform> steady_cloud(TimeMs until_ms) {
  static const auto spec = steady_spec();
  PlatformConfig cfg;
  cfg.seed = 11;
  // A small allocation so all four sessions fit on one server.
  auto cloud = std::make_unique<CloudPlatform>(
      cfg,
      std::make_unique<GreedyScheduler>(ResourceVector{12, 24, 900, 500}));
  cloud->add_server(hw::ServerSpec{});
  for (int i = 0; i < 4; ++i) cloud->submit(&spec, 0, 10 + i);
  cloud->begin(2LL * 3600 * 1000);
  cloud->advance_until(until_ms);
  return cloud;
}

TEST(SessionWindow, LiveSessionKeepsNewestSamplesByAbsoluteNumber) {
  constexpr std::size_t kCap = telemetry::SampleWindow::kCapacity;
  constexpr TimeMs kLate = 10 * 60 * 1000;  // ~600 samples per session
  constexpr TimeMs kEarly = kLate - 20 * 1000;
  auto late = steady_cloud(kLate);
  auto early = steady_cloud(kEarly);
  const auto sids = late->session_ids();
  ASSERT_EQ(sids.size(), 4u);
  ASSERT_EQ(early->session_ids(), sids);
  for (SessionId sid : sids) {
    const auto& w = late->session_samples(sid);
    const auto& e = early->session_samples(sid);
    // One sample per tick since admission at t = 0.
    EXPECT_EQ(w.count(), static_cast<std::size_t>(kLate / 1000));
    EXPECT_EQ(e.count() + 20, w.count());
    ASSERT_EQ(w.first(), w.count() - kCap);
    EXPECT_THROW(w.at(w.first() - 1), ContractError);
    EXPECT_THROW(w.at(w.count()), ContractError);
    // The retained run is contiguous: sample i was taken at tick i + 1.
    for (std::size_t i = w.first(); i < w.count(); ++i) {
      EXPECT_EQ(w.at(i).t, static_cast<TimeMs>(i + 1) * 1000);
    }
    EXPECT_EQ(w.back().t, kLate);
    // The same sample number names the same sample 20 ticks later, across
    // wraps of the ring: the overlap is bit-identical to the earlier run.
    for (std::size_t i = w.first(); i < e.count(); ++i) {
      EXPECT_EQ(w.at(i).t, e.at(i).t);
      EXPECT_EQ(w.at(i).fps, e.at(i).fps);
      for (std::size_t d = 0; d < kNumDims; ++d) {
        EXPECT_EQ(w.at(i).usage.at(d), e.at(i).usage.at(d));
      }
    }
  }
  late->finish();
  early->finish();
}

TEST(PlatformSlo, DefaultClassesTrackCompletedRunsByCategory) {
  static const auto contra = game::make_contra();
  PlatformConfig cfg;
  cfg.seed = 21;
  CloudPlatform cloud(cfg, std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 2, 4});
  cloud.run(30 * 60 * 1000);
  ASSERT_FALSE(cloud.completed_runs().empty());

  const auto rows = cloud.slo_tracker().attainment();
  ASSERT_EQ(rows.size(), default_slo_classes().size());
  const auto cls = static_cast<std::size_t>(contra.category);
  ASSERT_LT(cls, rows.size());
  EXPECT_EQ(rows[cls].runs, cloud.completed_runs().size());
  EXPECT_GE(rows[cls].fps_attainment_pct, 0.0);
  EXPECT_LE(rows[cls].fps_attainment_pct, 100.0);
  // Untouched classes stay vacuously attained.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == cls) continue;
    EXPECT_EQ(rows[i].runs, 0u);
    EXPECT_DOUBLE_EQ(rows[i].fps_attainment_pct, 100.0);
  }
}

TEST(PlatformProfiler, PipelineStagesRecordAndExportToMetrics) {
  static const auto contra = game::make_contra();
  obs::reset();
  obs::set_enabled(true);
  obs::set_profiling_enabled(true);
  PlatformConfig cfg;
  cfg.seed = 31;
  CloudPlatform cloud(cfg, std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 2, 4});
  cloud.run(10 * 60 * 1000);

  const obs::StageProfile prof = cloud.stage_profile();
  using obs::Stage;
  auto calls = [&](Stage s) {
    return prof[static_cast<std::size_t>(s)].calls;
  };
  EXPECT_GT(calls(Stage::kEventQueue), 0u);
  EXPECT_GT(calls(Stage::kRngDraws), 0u);
  EXPECT_GT(calls(Stage::kResourceKernels), 0u);
  EXPECT_GT(calls(Stage::kContentionResolve), 0u);
  // Greedy has no predictor/distributor/regulator instrumentation.
  EXPECT_EQ(calls(Stage::kPredictorDecide), 0u);
  EXPECT_EQ(calls(Stage::kRouter), 0u);

  obs::profiler().export_counters(obs::metrics());
  EXPECT_EQ(obs::metrics().counter_value("profiler.event_queue.calls"),
            calls(Stage::kEventQueue));
  std::ostringstream os;
  obs::metrics().write_json(os);
  EXPECT_NE(os.str().find("\"profiler.resource_kernels.total_ns\""),
            std::string::npos);

  obs::set_profiling_enabled(false);
  obs::set_enabled(false);
  obs::reset();
}

TEST(PlatformProfiler, ProfilingOffLeavesStageTableZero) {
  static const auto contra = game::make_contra();
  obs::reset();
  ASSERT_FALSE(obs::profiling_enabled());
  PlatformConfig cfg;
  cfg.seed = 32;
  CloudPlatform cloud(cfg, std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 2, 4});
  cloud.run(5 * 60 * 1000);
  for (const auto& st : cloud.stage_profile()) {
    EXPECT_EQ(st.calls, 0u);
    EXPECT_EQ(st.total_ns, 0u);
  }
  obs::reset();
}

}  // namespace
}  // namespace cocg::platform
