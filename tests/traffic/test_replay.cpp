// Capture/replay determinism — the traffic subsystem's contract:
// a captured fleet run, replayed via add_trace_arrivals with recorded
// routing, reproduces the original report byte-for-byte at any thread
// count.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "game/library.h"
#include "traffic/generator.h"
#include "traffic/source.h"
#include "traffic/trace.h"

namespace cocg::fleet {
namespace {

class GreedyScheduler final : public platform::Scheduler {
 public:
  explicit GreedyScheduler(ResourceVector alloc = {60, 90, 4000, 4000})
      : alloc_(alloc) {}

  std::string name() const override { return "greedy"; }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override {
    (void)req;
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        if (alloc_.fits_within(srv.free_on_gpu(g))) {
          return platform::Placement{server, g, alloc_};
        }
      }
    }
    return std::nullopt;
  }

 private:
  ResourceVector alloc_;
};

SchedulerFactory greedy_factory() {
  return [](int) { return std::make_unique<GreedyScheduler>(); };
}

const game::GameSpec& contra() {
  static const game::GameSpec g = game::make_contra();
  return g;
}
const game::GameSpec& csgo() {
  static const game::GameSpec g = game::make_csgo();
  return g;
}

std::vector<const game::GameSpec*> specs() { return {&contra(), &csgo()}; }

FleetConfig fleet_config(int shards, int threads,
                         RouterPolicy policy = RouterPolicy::kLeastLoaded) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.policy = policy;
  cfg.seed = 99;
  return cfg;
}

constexpr DurationMs kRunMs = 20 * 60 * 1000;

/// One game's Poisson load, all of it from `region`, for the router to
/// route.
void add_regional_load(Fleet& f, const game::GameSpec& g, double per_hour,
                       const std::string& region, std::uint64_t seed) {
  auto gcfg = traffic::per_game_poisson({&g}, per_hour, kRunMs, seed);
  gcfg.regions = {region};
  f.add_trace_arrivals(traffic::generate_trace(gcfg), {&g},
                       /*use_recorded_routing=*/false);
}

/// A live Poisson-driven fleet run with capture on: two generated traces,
/// merged by the fleet. Returns the report JSON and the captured trace.
struct Captured {
  std::string report;
  traffic::Trace trace;
};

Captured run_and_capture(int shards, int threads) {
  Fleet f(fleet_config(shards, threads), greedy_factory());
  for (int i = 0; i < 2 * shards; ++i) f.add_server(hw::ServerSpec{});
  add_regional_load(f, contra(), 60.0, "eu", 1);
  add_regional_load(f, csgo(), 40.0, "us", 2);
  traffic::TraceRecorder recorder;
  f.enable_capture(&recorder);
  f.run(kRunMs);
  return {report_json(f.report()), recorder.trace()};
}

/// Replay `trace` into a fresh fleet of the same shape. When `capture` is
/// non-null the replayed stream is re-captured into it.
std::string replay(const traffic::Trace& trace, int shards, int threads,
                   bool use_recorded_routing,
                   RouterPolicy policy = RouterPolicy::kLeastLoaded,
                   traffic::TraceRecorder* capture = nullptr) {
  Fleet f(fleet_config(shards, threads, policy), greedy_factory());
  for (int i = 0; i < 2 * shards; ++i) f.add_server(hw::ServerSpec{});
  const std::size_t added =
      f.add_trace_arrivals(trace, specs(), use_recorded_routing);
  EXPECT_EQ(added, trace.events.size());
  if (capture != nullptr) f.enable_capture(capture);
  f.run(kRunMs);
  return report_json(f.report());
}

// THE acceptance test: capture a live run, replay the capture, and the
// fleet report is byte-identical — at one thread and at four.
TEST(TraceReplay, CapturedRunReplaysByteIdentical) {
  const Captured cap = run_and_capture(/*shards=*/3, /*threads=*/2);
  ASSERT_FALSE(cap.trace.events.empty());

  const std::string replay_1t =
      replay(cap.trace, 3, /*threads=*/1, /*use_recorded_routing=*/true);
  const std::string replay_4t =
      replay(cap.trace, 3, /*threads=*/4, /*use_recorded_routing=*/true);
  EXPECT_EQ(replay_1t, cap.report);
  EXPECT_EQ(replay_4t, cap.report);
}

// Capture → replay → re-capture is a fixed point: the second capture is
// the same trace (same region table order, same verdicts, same events).
TEST(TraceReplay, RecaptureOfReplayIsAFixedPoint) {
  const Captured cap = run_and_capture(2, 1);
  traffic::TraceRecorder second;
  replay(cap.trace, 2, 1, /*use_recorded_routing=*/true,
         RouterPolicy::kLeastLoaded, &second);
  EXPECT_EQ(second.trace().regions, cap.trace.regions);
  EXPECT_EQ(second.trace().games, cap.trace.games);
  EXPECT_EQ(second.trace().events, cap.trace.events);
}

// The captured trace survives the text format unchanged, so file-based
// replay (cocg_fleet --trace-in) sees the identical stream.
TEST(TraceReplay, CapturedTraceRoundTripsThroughText) {
  const Captured cap = run_and_capture(2, 1);
  std::ostringstream os;
  traffic::write_trace(cap.trace, os);
  std::istringstream is(os.str());
  const traffic::Trace reread = traffic::read_trace(is);
  EXPECT_EQ(reread, cap.trace);
  EXPECT_EQ(replay(reread, 2, 1, true), cap.report);
}

// Re-routing the same stream under a different policy still serves every
// arrival — the policy-comparison mode (--replay-reroute).
TEST(TraceReplay, RerouteServesSameArrivalsUnderAnotherPolicy) {
  const Captured cap = run_and_capture(3, 1);
  Fleet f(fleet_config(3, 1, RouterPolicy::kRoundRobin), greedy_factory());
  for (int i = 0; i < 6; ++i) f.add_server(hw::ServerSpec{});
  f.add_trace_arrivals(cap.trace, specs(), /*use_recorded_routing=*/false);
  f.run(kRunMs);
  const auto rep = f.report();
  EXPECT_EQ(rep.arrivals, cap.trace.events.size());
  std::size_t routed = 0;
  for (const auto& row : rep.shards) routed += row.routed;
  EXPECT_EQ(routed, cap.trace.events.size());
}

// Generated traces (not just captured ones) drive the fleet, and the
// per-region report rows account for every routed arrival.
TEST(TraceReplay, GeneratedTraceDrivesFleetWithRegionAccounting) {
  traffic::GeneratorConfig gcfg;
  gcfg.duration_ms = kRunMs;
  gcfg.arrivals_per_hour = 300.0;
  gcfg.seed = 11;
  gcfg.games = specs();
  gcfg.regions = {"eu", "us"};
  const traffic::Trace trace = traffic::generate_trace(gcfg);
  ASSERT_FALSE(trace.events.empty());

  Fleet f(fleet_config(2, 2), greedy_factory());
  for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
  f.add_trace_arrivals(trace, specs(), /*use_recorded_routing=*/true);
  f.run(kRunMs);
  const auto rep = f.report();
  EXPECT_EQ(rep.arrivals, trace.events.size());

  // RegionTable order: "global" first, then the trace's regions.
  ASSERT_EQ(rep.regions.size(), 3u);
  EXPECT_EQ(rep.regions[0].region, "global");
  EXPECT_EQ(rep.regions[1].region, "eu");
  EXPECT_EQ(rep.regions[2].region, "us");
  std::size_t routed = 0;
  for (const auto& row : rep.regions) routed += row.routed;
  EXPECT_EQ(routed, rep.arrivals);
  EXPECT_GT(rep.regions[1].routed + rep.regions[2].routed, 0u);
}

TEST(TraceReplay, BindRejectsUnknownGameAndBadScript) {
  traffic::Trace trace;
  trace.regions = {"global"};
  trace.games.push_back({"No Such Game", game::GameCategory::kWeb});
  trace.events.push_back({0, 0, 0, 1, traffic::PlayerProfile::kRegular,
                          1000, 0, -1});
  traffic::RegionTable regions;
  EXPECT_THROW(traffic::bind_trace(trace, specs(), regions),
               traffic::BindError);

  traffic::Trace bad_script;
  bad_script.regions = {"global"};
  bad_script.games.push_back({contra().name, contra().category});
  bad_script.events.push_back({0, 0, 0, 1, traffic::PlayerProfile::kRegular,
                               1000, 10'000, -1});
  EXPECT_THROW(traffic::bind_trace(bad_script, specs(), regions),
               traffic::BindError);

  traffic::Trace bad_index = bad_script;
  bad_index.events[0].script_idx = 0;
  bad_index.events[0].game = 1;  // the trace lists one game
  EXPECT_THROW(traffic::bind_trace(bad_index, specs(), regions),
               traffic::BindError);
  bad_index.events[0].game = 0;
  bad_index.events[0].region = 1;  // and one region
  EXPECT_THROW(traffic::bind_trace(bad_index, specs(), regions),
               traffic::BindError);
  bad_index.events[0].region = 0;
  EXPECT_EQ(traffic::bind_trace(bad_index, specs(), regions).size(), 1u);
}

TEST(TraceReplay, BindRejectsOutOfOrderTimestamps) {
  traffic::Trace trace;
  trace.regions = {"global"};
  trace.games.push_back({contra().name, contra().category});
  trace.events.push_back({10, 0, 0, 1, traffic::PlayerProfile::kRegular,
                          1000, 0, -1});
  trace.events.push_back({5, 0, 0, 2, traffic::PlayerProfile::kRegular,
                          1000, 0, -1});
  traffic::RegionTable regions;
  try {
    traffic::bind_trace(trace, specs(), regions);
    FAIL() << "a decreasing timestamp must not bind";
  } catch (const traffic::BindError& e) {
    EXPECT_NE(std::string(e.what()).find("event 1"), std::string::npos)
        << e.what();
  }
  trace.events[1].t = 10;  // equal times are in order
  EXPECT_EQ(traffic::bind_trace(trace, specs(), regions).size(), 2u);
  trace.events[0].t = -1;
  EXPECT_THROW(traffic::bind_trace(trace, specs(), regions),
               traffic::BindError);
}

/// A trace of `game` arrivals at `times`, each with recorded verdict
/// `shard`.
traffic::Trace trace_at(const game::GameSpec& game,
                        const std::vector<TimeMs>& times, int shard) {
  traffic::Trace trace;
  trace.regions = {"global"};
  trace.games.push_back({game.name, game.category});
  std::uint64_t player = 1;
  for (TimeMs t : times) {
    trace.events.push_back({t, 0, 0, player++,
                            traffic::PlayerProfile::kRegular, 1000, 0,
                            shard});
  }
  return trace;
}

// Epoch windows are (t0, t1]; the first one also owns t == 0. The
// lockstep barrier hook runs at each boundary before that epoch routes.
TEST(FleetArrivals, CursorHonorsEpochWindows) {
  Fleet f(fleet_config(1, 1), greedy_factory());
  f.add_server(hw::ServerSpec{});
  const DurationMs epoch = f.config().platform.control_period_ms;
  f.add_trace_arrivals(
      trace_at(contra(), {0, epoch, epoch, 2 * epoch, 2 * epoch + 2000}, -1),
      specs(), /*use_recorded_routing=*/false);
  std::vector<std::size_t> routed_by;
  f.set_barrier_hook(
      [&](TimeMs) { routed_by.push_back(f.arrivals_generated()); });
  f.run(4 * epoch);
  // Syncs at epoch, 2·epoch and 3·epoch, then once after the last epoch.
  EXPECT_EQ(routed_by, (std::vector<std::size_t>{3, 4, 5, 5}));
}

// Traces merge by time, ties in registration order, and each keeps or
// drops its recorded verdicts by its own use_recorded_routing.
TEST(FleetArrivals, TracesMergeByTimeThenRegistration) {
  Fleet f(fleet_config(2, 1, RouterPolicy::kRoundRobin), greedy_factory());
  for (int i = 0; i < 2; ++i) f.add_server(hw::ServerSpec{});
  f.add_trace_arrivals(trace_at(contra(), {0, 5000}, 1), specs(),
                       /*use_recorded_routing=*/true);
  f.add_trace_arrivals(trace_at(csgo(), {0, 3000}, 1), specs(),
                       /*use_recorded_routing=*/false);
  traffic::TraceRecorder recorder;
  f.enable_capture(&recorder);
  f.run(10'000);
  const auto& events = recorder.trace().events;
  ASSERT_EQ(events.size(), 4u);
  const auto& games = recorder.trace().games;
  std::vector<std::string> order;
  std::vector<TimeMs> times;
  std::vector<std::int32_t> verdicts;
  for (const auto& e : events) {
    order.push_back(games[e.game].name);
    times.push_back(e.t);
    verdicts.push_back(e.shard);
  }
  EXPECT_EQ(order, (std::vector<std::string>{contra().name, csgo().name,
                                             csgo().name, contra().name}));
  EXPECT_EQ(times, (std::vector<TimeMs>{0, 0, 3000, 5000}));
  // Contra keeps its recorded shard 1; round-robin routes CSGO to 0 then 1.
  EXPECT_EQ(verdicts, (std::vector<std::int32_t>{1, 0, 1, 1}));
}

}  // namespace
}  // namespace cocg::fleet
