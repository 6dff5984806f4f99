#include "platform/cloud_platform.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "game/library.h"

namespace cocg::platform {
namespace {

/// Greedy admit-everything scheduler used to exercise the platform itself.
class GreedyScheduler final : public Scheduler {
 public:
  explicit GreedyScheduler(ResourceVector alloc = {60, 90, 4000, 4000})
      : alloc_(alloc) {}

  std::string name() const override { return "greedy"; }

  std::optional<Placement> admit(PlatformView& view,
                                 const GameRequest& req) override {
    (void)req;
    ++admit_calls_;
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

  void on_session_start(PlatformView&, SessionId) override { ++starts_; }
  void on_session_end(PlatformView&, SessionId) override { ++ends_; }

  int admit_calls() const { return admit_calls_; }
  int starts() const { return starts_; }
  int ends() const { return ends_; }

 private:
  ResourceVector alloc_;
  int admit_calls_ = 0;
  int starts_ = 0;
  int ends_ = 0;
};

/// Scheduler that rejects everything.
class RejectingScheduler final : public Scheduler {
 public:
  std::string name() const override { return "reject"; }
  std::optional<Placement> admit(PlatformView&, const GameRequest&) override {
    return std::nullopt;
  }
};

PlatformConfig quiet_config(std::uint64_t seed = 1) {
  PlatformConfig cfg;
  cfg.seed = seed;
  cfg.session.spike_prob = 0.0;
  return cfg;
}

TEST(CloudPlatform, RunsClosedLoopSource) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 4});
  cloud.run(40 * 60 * 1000);  // 40 min ≫ one Contra run
  EXPECT_GE(cloud.completed_runs().size(), 2u);
  for (const auto& run : cloud.completed_runs()) {
    EXPECT_EQ(run.game, "Contra");
    EXPECT_GT(run.duration_ms, 0);
  }
}

TEST(CloudPlatform, ThroughputSumsCompletedSeconds) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(2), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 4});
  cloud.run(30 * 60 * 1000);
  double expect = 0.0;
  for (const auto& run : cloud.completed_runs()) {
    expect += ms_to_sec(run.duration_ms);
  }
  EXPECT_DOUBLE_EQ(cloud.throughput(), expect);
}

TEST(CloudPlatform, GameStatsAggregate) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(3), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 4});
  cloud.run(30 * 60 * 1000);
  const auto stats = cloud.game_stats();
  ASSERT_TRUE(stats.count("Contra"));
  EXPECT_EQ(stats.at("Contra").completed,
            static_cast<int>(cloud.completed_runs().size()));
  EXPECT_GT(stats.at("Contra").mean_fps_ratio, 0.9);
}

TEST(CloudPlatform, RejectedRequestsStayQueued) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(4),
                      std::make_unique<RejectingScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 2, 4});
  cloud.run(60 * 1000);
  EXPECT_EQ(cloud.completed_runs().size(), 0u);
  EXPECT_EQ(cloud.running_sessions(), 0u);
  EXPECT_EQ(cloud.queued_requests(), 2u);  // max_concurrent outstanding
}

TEST(CloudPlatform, SchedulerLifecycleCallbacks) {
  static const auto contra = game::make_contra();
  auto sched = std::make_unique<GreedyScheduler>();
  auto* sched_ptr = sched.get();
  CloudPlatform cloud(quiet_config(5), std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 4});
  cloud.run(30 * 60 * 1000);
  EXPECT_GT(sched_ptr->starts(), 0);
  EXPECT_EQ(sched_ptr->ends(),
            static_cast<int>(cloud.completed_runs().size()));
}

TEST(CloudPlatform, SessionTraceRecordsSamples) {
  static const auto dota2 = game::make_dota2();
  CloudPlatform cloud(quiet_config(6), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&dota2, 1, 4});
  cloud.run(60 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  const auto& samples = cloud.session_samples(sid);
  // One sample per second, minus the admission delay.
  EXPECT_GE(samples.count(), 50u);
  EXPECT_LE(samples.count(), 61u);
  const auto info = cloud.session_info(sid);
  EXPECT_EQ(info.spec, &dota2);
  EXPECT_GE(info.player_id, 1u);
}

TEST(CloudPlatform, ReallocateThroughView) {
  static const auto dota2 = game::make_dota2();
  CloudPlatform cloud(quiet_config(7), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&dota2, 1, 4});
  cloud.run(10 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 1u);
  const SessionId sid = cloud.session_ids()[0];
  EXPECT_TRUE(cloud.reallocate(sid, {50, 50, 3000, 3000}));
  EXPECT_EQ(cloud.session_info(sid).allocation.gpu(), 50.0);
  EXPECT_FALSE(cloud.reallocate(SessionId{999}, {1, 1, 1, 1}));
}

TEST(CloudPlatform, HoldLoadingExtendsSession) {
  static const auto contra = game::make_contra();
  CloudPlatform a(quiet_config(8), std::make_unique<GreedyScheduler>());
  a.add_server(hw::ServerSpec{});
  a.add_source({&contra, 1, 4});
  a.run(3 * 1000);  // Contra's init loading lasts >= 5 s
  ASSERT_EQ(a.running_sessions(), 1u);
  const SessionId sid = a.session_ids()[0];
  ASSERT_EQ(a.session_truth(sid).stage_kind(), game::StageKind::kLoading);
  a.hold_loading(sid, true);
  a.run(60 * 1000);
  // Still in (held) loading — ground truth confirms.
  EXPECT_EQ(a.session_truth(sid).stage_kind(), game::StageKind::kLoading);
}

TEST(CloudPlatform, MaxConcurrentHonoured) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(9), std::make_unique<GreedyScheduler>(
                                           ResourceVector{10, 10, 500, 500}));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 3, 6});
  cloud.run(30 * 1000);
  EXPECT_EQ(cloud.running_sessions(), 3u);
}

// A submitted session of a source's game is not the source's: when it
// ends, the source must not issue another and overrun max_concurrent.
TEST(CloudPlatform, CompletionCreditsOnlyTheIssuingSource) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(12), std::make_unique<GreedyScheduler>(
                                            ResourceVector{10, 10, 500, 500}));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 6});
  RequestMeta submitted;
  submitted.region = 7;  // tags the submitted session's CompletedRun
  cloud.submit(&contra, 0, 1, submitted);
  constexpr DurationMs kHorizon = 60 * 60 * 1000;
  cloud.begin(kHorizon);
  bool submitted_done = false;
  std::size_t checked = 0;
  for (TimeMs t = 5000; t <= kHorizon; t += 5000) {
    cloud.advance_until(t);
    for (const auto& run : cloud.completed_runs()) {
      submitted_done |= run.region == submitted.region;
    }
    if (!submitted_done) continue;
    ++checked;
    EXPECT_LE(cloud.running_sessions() + cloud.queued_requests(), 1u)
        << "at t=" << t;
  }
  cloud.finish();
  EXPECT_GT(checked, 0u) << "the submitted session never finished";
}

TEST(CloudPlatform, UtilizationRecordingProducesPoints) {
  static const auto contra = game::make_contra();
  CloudPlatform cloud(quiet_config(10), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 4});
  cloud.enable_utilization_recording(true);
  cloud.run(30 * 1000);
  const auto& log = cloud.utilization_log();
  ASSERT_FALSE(log.empty());
  // Two GPU views per tick.
  EXPECT_EQ(log.size() % 2, 0u);
  for (const auto& up : log) {
    EXPECT_GE(up.max_dim_fraction, 0.0);
    EXPECT_LE(up.max_dim_fraction, 1.0 + 1e-9);
  }
}

TEST(CloudPlatform, DeterministicAcrossRuns) {
  static const auto genshin = game::make_genshin();
  auto run_once = [&] {
    CloudPlatform cloud(quiet_config(11),
                        std::make_unique<GreedyScheduler>());
    cloud.add_server(hw::ServerSpec{});
    cloud.add_source({&genshin, 1, 4});
    cloud.run(25 * 60 * 1000);
    return std::make_pair(cloud.completed_runs().size(),
                          cloud.throughput());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(CloudPlatform, WaitTimeAccounted) {
  static const auto contra = game::make_contra();
  // Rejecting scheduler first: requests age in the queue; then a greedy
  // platform admits instantly and waits are ~0.
  CloudPlatform cloud(quiet_config(20), std::make_unique<GreedyScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&contra, 1, 4});
  cloud.run(25 * 60 * 1000);
  ASSERT_GE(cloud.completed_runs().size(), 1u);
  // First request admitted at t=0 (run start) → zero wait; replenished
  // requests are admitted at the next control tick → wait ≤ 5 s.
  for (const auto& run : cloud.completed_runs()) {
    EXPECT_GE(run.wait_ms, 0);
    EXPECT_LE(run.wait_ms, 5000);
  }
  const auto stats = cloud.game_stats();
  EXPECT_LT(stats.at("Contra").mean_wait_s, 5.1);
}

TEST(CloudPlatform, ConfigValidation) {
  PlatformConfig bad;
  bad.tick_ms = 0;
  EXPECT_THROW(
      CloudPlatform(bad, std::make_unique<GreedyScheduler>()),
      ContractError);
  EXPECT_THROW(CloudPlatform(quiet_config(), nullptr), ContractError);
}

TEST(CloudPlatform, TwoServersSpillOver) {
  static const auto dmc = game::make_devil_may_cry();
  // Allocation so large only one session fits per GPU view.
  CloudPlatform cloud(quiet_config(12),
                      std::make_unique<GreedyScheduler>(
                          ResourceVector{40, 90, 4000, 4000}));
  cloud.add_server(hw::ServerSpec{});
  cloud.add_server(hw::ServerSpec{});
  cloud.add_source({&dmc, 4, 8});
  cloud.run(60 * 1000);
  // CPU pool (100) limits each server to 2 such sessions: 2 + 2 across
  // servers.
  EXPECT_EQ(cloud.running_sessions(), 4u);
  std::set<std::uint64_t> servers;
  for (SessionId sid : cloud.session_ids()) {
    servers.insert(cloud.session_info(sid).server.value);
  }
  EXPECT_EQ(servers.size(), 2u);
}

}  // namespace
}  // namespace cocg::platform
