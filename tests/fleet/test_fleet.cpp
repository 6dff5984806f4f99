#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/cocg_scheduler.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/scheduler_factory.h"
#include "game/library.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "traffic/generator.h"

namespace cocg::fleet {
namespace {

/// Greedy admit-everything scheduler: model-free, so fleet tests exercise
/// the sharding machinery without offline training cost.
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

/// Flip the obs switches for one test and restore them after.
class ObsGuard {
 public:
  explicit ObsGuard(bool trace = false)
      : saved_(obs::enabled()), saved_trace_(obs::trace_enabled()) {
    obs::set_enabled(true);
    obs::set_trace_enabled(trace);
  }
  ~ObsGuard() {
    obs::set_enabled(saved_);
    obs::set_trace_enabled(saved_trace_);
  }

 private:
  bool saved_;
  bool saved_trace_;
};

const game::GameSpec& contra() {
  static const game::GameSpec g = game::make_contra();
  return g;
}
const game::GameSpec& csgo() {
  static const game::GameSpec g = game::make_csgo();
  return g;
}

SchedulerFactory greedy_factory() {
  return [](int) { return std::make_unique<GreedyScheduler>(); };
}

/// Poisson load of `per_game_per_hour` for each of `games` over the
/// longest horizon these tests run, seeded from the fleet's seed.
void add_poisson(Fleet& f, const std::vector<const game::GameSpec*>& games,
                 double per_game_per_hour) {
  f.add_trace_arrivals(
      traffic::generate_trace(traffic::per_game_poisson(
          games, per_game_per_hour, 60 * 60 * 1000, f.config().seed)),
      games, /*use_recorded_routing=*/false);
}

FleetConfig small_config(int shards, int threads,
                         RouterPolicy policy = RouterPolicy::kLeastLoaded) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.policy = policy;
  cfg.seed = 99;
  return cfg;
}

/// Standard small fleet: `shards` shards, 2 servers each, open-loop load
/// of two games.
std::unique_ptr<Fleet> make_small_fleet(int shards, int threads,
                                        RouterPolicy policy =
                                            RouterPolicy::kLeastLoaded) {
  auto f = std::make_unique<Fleet>(small_config(shards, threads, policy),
                                   greedy_factory());
  for (int i = 0; i < 2 * shards; ++i) f->add_server(hw::ServerSpec{});
  add_poisson(*f, {&contra(), &csgo()}, 50.0);
  return f;
}

TEST(Fleet, ServersPartitionRoundRobin) {
  Fleet f(small_config(2, 1), greedy_factory());
  EXPECT_EQ(f.add_server(hw::ServerSpec{}), 0);
  EXPECT_EQ(f.add_server(hw::ServerSpec{}), 1);
  EXPECT_EQ(f.add_server(hw::ServerSpec{}), 0);
  EXPECT_EQ(f.loads()[0].servers, 2u);
  EXPECT_EQ(f.loads()[1].servers, 1u);
  EXPECT_EQ(f.loads()[0].gpu_views, 4u);
}

TEST(Fleet, OpenLoopArrivalsAreConserved) {
  auto f = make_small_fleet(3, 1);
  f->run(30 * 60 * 1000);
  const auto rep = f->report();
  EXPECT_GT(rep.arrivals, 10u);
  std::size_t routed = 0;
  for (int i = 0; i < f->num_shards(); ++i) routed += f->routed_to(i);
  EXPECT_EQ(routed, rep.arrivals);
  // Every routed request is still accounted for: finished, running, or
  // queued. Nothing lost, nothing duplicated.
  for (const auto& row : rep.shards) {
    EXPECT_EQ(row.routed,
              row.completed + row.running_end + row.queued_end)
        << "shard " << row.shard;
  }
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.throughput, 0.0);
}

// The determinism contract (docs/fleet.md): thread count affects wall
// clock only. Aggregated events, metrics, traces and results must be
// byte-identical between a serial and a parallel run.
TEST(Fleet, AggregateResultsIdenticalAcrossThreadCounts) {
  ObsGuard guard(/*trace=*/true);
  auto run_with = [](int threads) {
    auto f = make_small_fleet(4, threads);
    f->run(30 * 60 * 1000);
    struct Out {
      std::string events, metrics, trace;
      FleetReport rep;
      std::vector<std::size_t> routed;
    } out;
    out.events = f->merged_events_jsonl();
    obs::MetricsRegistry merged;
    f->merge_metrics(merged);
    out.metrics = merged.to_json();
    std::ostringstream tr;
    f->write_merged_trace(tr);
    out.trace = tr.str();
    out.rep = f->report();
    for (int i = 0; i < f->num_shards(); ++i) {
      out.routed.push_back(f->routed_to(i));
    }
    return out;
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.routed, parallel.routed);
  EXPECT_DOUBLE_EQ(serial.rep.throughput, parallel.rep.throughput);
  EXPECT_EQ(serial.rep.completed, parallel.rep.completed);
  EXPECT_EQ(serial.rep.arrivals, parallel.rep.arrivals);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_GT(serial.rep.completed, 0u);
}

TEST(Fleet, SameSeedReproducesDifferentSeedDiverges) {
  ObsGuard guard;
  auto run_with = [](std::uint64_t seed) {
    auto cfg = small_config(2, 2);
    cfg.seed = seed;
    Fleet f(cfg, greedy_factory());
    for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
    add_poisson(f, {&contra()}, 60.0);
    f.run(20 * 60 * 1000);
    return f.merged_events_jsonl();
  };
  EXPECT_EQ(run_with(5), run_with(5));
  EXPECT_NE(run_with(5), run_with(6));
}

TEST(Fleet, MergedEventsCarryShardFieldTimeOrdered) {
  ObsGuard guard;
  auto f = make_small_fleet(2, 2);
  f->run(20 * 60 * 1000);
  std::istringstream is(f->merged_events_jsonl());
  std::string line;
  double prev_t = -1.0;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(line, v)) << line;
    const double shard = v.get_number("shard", -1.0);
    EXPECT_GE(shard, 0.0);
    EXPECT_LT(shard, 2.0);
    const double t = v.get_number("t", -1.0);
    EXPECT_GE(t, prev_t);
    prev_t = t;
  }
  EXPECT_GT(lines, 0u);
}

TEST(Fleet, MergedTraceRendersShardsAsProcessGroups) {
  ObsGuard guard(/*trace=*/true);
  auto f = make_small_fleet(2, 2);
  f->run(20 * 60 * 1000);
  std::ostringstream os;
  f->write_merged_trace(os);
  const std::string trace = os.str();
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(trace, v));
  EXPECT_NE(trace.find("shard0/"), std::string::npos);
  EXPECT_NE(trace.find("shard1/"), std::string::npos);
  // Shard 1's pids live in the second stride block (platform pids are
  // 1-based server ids).
  EXPECT_NE(trace.find("\"pid\":" + std::to_string(kShardPidStride + 1)),
            std::string::npos);
}

TEST(Fleet, MergedMetricsSumShardCounters) {
  ObsGuard guard;
  auto f = make_small_fleet(2, 1);
  f->run(20 * 60 * 1000);
  std::uint64_t per_shard_sum = 0;
  for (int i = 0; i < 2; ++i) {
    per_shard_sum += f->shard_domain(i).metrics.counter_value(
        "platform.requests_submitted");
  }
  obs::MetricsRegistry merged;
  f->merge_metrics(merged);
  EXPECT_EQ(merged.counter_value("platform.requests_submitted"),
            per_shard_sum);
  EXPECT_EQ(per_shard_sum, f->arrivals_generated());
  // The process-global registry saw none of the shard activity.
  EXPECT_EQ(obs::global_domain().metrics.counter_value(
                "platform.requests_submitted"),
            0u);
}

TEST(Fleet, RunIsOneShot) {
  auto f = make_small_fleet(1, 1);
  f->run(60 * 1000);
  EXPECT_THROW(f->run(60 * 1000), ContractError);
}

TEST(Fleet, ReportJsonIsCanonical) {
  auto f = make_small_fleet(2, 2);
  f->run(20 * 60 * 1000);
  const auto rep = f->report();
  const std::string json = report_json(rep);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(json, v)) << json;
  EXPECT_EQ(v.get_number("completed", -1.0),
            static_cast<double>(rep.completed));
  std::ostringstream os;
  write_report_json(rep, os);
  EXPECT_EQ(os.str(), json);
}

// --- steal runner: lockstep is the bitwise oracle ---

/// Everything a run externalizes, for byte comparison across runners.
struct RunSurface {
  std::string report, events, metrics, trace;
};

RunSurface run_surface(Fleet& f, DurationMs horizon) {
  f.run(horizon);
  RunSurface out;
  out.report = report_json(f.report());
  out.events = f.merged_events_jsonl();
  obs::MetricsRegistry merged;
  f.merge_metrics(merged);
  out.metrics = merged.to_json();
  std::ostringstream tr;
  f.write_merged_trace(tr);
  out.trace = tr.str();
  return out;
}

std::unique_ptr<Fleet> make_runner_fleet(RunnerKind runner, int threads,
                                         RouterPolicy policy) {
  auto cfg = small_config(4, threads, policy);
  cfg.runner = runner;
  auto f = std::make_unique<Fleet>(cfg, greedy_factory());
  for (int i = 0; i < 8; ++i) f->add_server(hw::ServerSpec{});
  add_poisson(*f, {&contra(), &csgo()}, 50.0);
  return f;
}

// The tentpole contract: the steal runner must reproduce the lockstep
// runner's entire external surface byte-for-byte at any thread count,
// under both a loads-free policy (rr — full run-ahead, no syncs) and a
// load-based one (ll — sync every fresh-routed epoch).
TEST(FleetSteal, ByteIdenticalToLockstepAcrossThreadCounts) {
  ObsGuard guard(/*trace=*/true);
  constexpr DurationMs kHorizon = 30 * 60 * 1000;
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded}) {
    auto lockstep = make_runner_fleet(RunnerKind::kLockstep, 1, policy);
    const RunSurface base = run_surface(*lockstep, kHorizon);
    ASSERT_FALSE(base.events.empty());
    for (int threads : {1, 2, 8}) {
      auto steal = make_runner_fleet(RunnerKind::kSteal, threads, policy);
      const RunSurface got = run_surface(*steal, kHorizon);
      EXPECT_EQ(base.report, got.report) << threads;
      EXPECT_EQ(base.events, got.events) << threads;
      EXPECT_EQ(base.metrics, got.metrics) << threads;
      EXPECT_EQ(base.trace, got.trace) << threads;
    }
  }
}

TEST(FleetSteal, RoundRobinRunsAheadWithoutSyncs) {
  auto f = make_runner_fleet(RunnerKind::kSteal, 2, RouterPolicy::kRoundRobin);
  f->run(30 * 60 * 1000);
  const auto& es = f->executor_stats();
  EXPECT_GT(es.jobs_run, 0u);
  // rr never reads the load snapshots and no health stream is attached,
  // so the coordinator should never have had to drain mid-run.
  EXPECT_EQ(es.syncs, 0u);
}

TEST(FleetSteal, LoadBasedPolicySyncsButStaysIdentical) {
  auto f = make_runner_fleet(RunnerKind::kSteal, 2, RouterPolicy::kLeastLoaded);
  f->run(30 * 60 * 1000);
  const auto& es = f->executor_stats();
  // ll reads loads on every freshly routed epoch: syncs must happen.
  EXPECT_GT(es.syncs, 0u);
  EXPECT_GT(es.jobs_run, 0u);
}

TEST(FleetSteal, HealthSnapshotsIdenticalAcrossRunnersModuloExecutor) {
  // The steal runner appends an "executor" block (wall-clock steal/idle
  // telemetry that has no lockstep analogue) to each heartbeat; the
  // simulated-state portion must still match lockstep byte for byte.
  ObsGuard guard;
  auto run_with = [](RunnerKind runner) {
    auto f = make_runner_fleet(runner, 2, RouterPolicy::kRoundRobin);
    std::ostringstream health;
    f->enable_health_stream(&health, 60 * 1000);
    f->run(10 * 60 * 1000);
    return health.str();
  };
  auto strip_executor = [](const std::string& jsonl) {
    std::string out;
    std::istringstream is(jsonl);
    std::string line;
    while (std::getline(is, line)) {
      const auto pos = line.find(",\"executor\":{");
      if (pos != std::string::npos) {
        const auto end = line.find('}', pos);
        EXPECT_NE(end, std::string::npos);
        line.erase(pos, end - pos + 1);
      }
      out += line;
      out += '\n';
    }
    return out;
  };
  const std::string lockstep = run_with(RunnerKind::kLockstep);
  const std::string steal = run_with(RunnerKind::kSteal);
  ASSERT_FALSE(lockstep.empty());
  // Lockstep heartbeats carry no executor block at all...
  EXPECT_EQ(lockstep.find("\"executor\""), std::string::npos);
  // ...the steal runner's do...
  EXPECT_NE(steal.find("\"executor\""), std::string::npos);
  // ...and everything else is identical.
  EXPECT_EQ(lockstep, strip_executor(steal));
}

// Capture under one runner, replay under the other: recorded verdicts
// bypass the router entirely, so the steal replay runs fully ahead and
// must still reproduce the capture run's report byte-for-byte.
TEST(FleetSteal, CaptureReplayRoundTripsAcrossRunners) {
  ObsGuard guard;
  constexpr DurationMs kHorizon = 20 * 60 * 1000;
  traffic::TraceRecorder rec;
  auto captured = make_runner_fleet(RunnerKind::kLockstep, 1,
                                    RouterPolicy::kLeastLoaded);
  captured->enable_capture(&rec);
  const RunSurface base = run_surface(*captured, kHorizon);
  ASSERT_GT(rec.size(), 0u);

  const std::vector<const game::GameSpec*> specs = {&contra(), &csgo()};
  for (RunnerKind runner : {RunnerKind::kLockstep, RunnerKind::kSteal}) {
    for (int threads : {1, 8}) {
      auto cfg = small_config(4, threads, RouterPolicy::kLeastLoaded);
      cfg.runner = runner;
      Fleet replay(cfg, greedy_factory());
      for (int i = 0; i < 8; ++i) replay.add_server(hw::ServerSpec{});
      replay.add_trace_arrivals(rec.trace(), specs,
                                /*use_recorded_routing=*/true);
      const RunSurface got = run_surface(replay, kHorizon);
      EXPECT_EQ(base.report, got.report)
          << runner_kind_name(runner) << " x" << threads;
      EXPECT_EQ(base.events, got.events)
          << runner_kind_name(runner) << " x" << threads;
    }
  }
}

/// Admits nothing and fails every control tick.
class ThrowingControlScheduler final : public platform::Scheduler {
 public:
  std::string name() const override { return "throwing"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView&, const platform::GameRequest&) override {
    return std::nullopt;
  }
  void control(platform::PlatformView&) override {
    throw std::runtime_error("control failed");
  }
};

// A shard that dies mid-run must be named in the error under either
// runner policy, even though the executor's job index is run-wide.
TEST(FleetSteal, ShardFailureNamesTheShardUnderBothRunners) {
  for (RunnerKind runner : {RunnerKind::kLockstep, RunnerKind::kSteal}) {
    auto cfg = small_config(3, 2, RouterPolicy::kRoundRobin);
    cfg.runner = runner;
    Fleet f(cfg, [](int shard) -> std::unique_ptr<platform::Scheduler> {
      if (shard == 1) return std::make_unique<ThrowingControlScheduler>();
      return std::make_unique<GreedyScheduler>();
    });
    for (int i = 0; i < 3; ++i) f.add_server(hw::ServerSpec{});
    try {
      f.run(10 * 60 * 1000);
      FAIL() << "expected rethrow under " << runner_kind_name(runner);
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("(shard 1): control failed"), std::string::npos)
          << runner_kind_name(runner) << ": " << what;
    }
  }
}

// --- train-once model sharing (core::ModelBank) across shards ---

/// Fleet run under the real CoCG scheduler; returns the canonical report
/// JSON plus the merged event stream, the full determinism surface.
struct CocgRunOut {
  std::string report, events;
};

CocgRunOut run_cocg_fleet(const core::ModelBank* bank,
                          const std::vector<game::GameSpec>& suite,
                          const core::OfflineConfig& ocfg, int threads) {
  ObsGuard guard;
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.policy = RouterPolicy::kLeastLoaded;
  cfg.seed = 7;
  Fleet f(cfg, [&](int) {
    if (bank != nullptr) {
      return core::make_named_scheduler("cocg", *bank, suite);
    }
    return core::make_named_scheduler("cocg", core::train_suite(suite, ocfg));
  });
  for (int i = 0; i < 4; ++i) f.add_server(hw::ServerSpec{});
  std::vector<const game::GameSpec*> games;
  for (const auto& g : suite) games.push_back(&g);
  add_poisson(f, games, 40.0);
  f.run(15 * 60 * 1000);
  CocgRunOut out;
  out.report = report_json(f.report());
  out.events = f.merged_events_jsonl();
  return out;
}

TEST(FleetModelBank, SharedBankMatchesRetrainPerShard) {
  const std::vector<game::GameSpec> suite = {game::make_contra(),
                                             game::make_csgo()};
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;

  core::ModelBank bank;
  for (const auto& [name, tg] : core::train_suite(suite, ocfg)) {
    bank.add_trained(tg);
  }

  // One shared training pass vs. an independent retrain inside every
  // shard: byte-identical reports and event streams (the acceptance
  // criterion for the train-once path), at any thread count.
  const auto shared_1 = run_cocg_fleet(&bank, suite, ocfg, 1);
  const auto shared_2 = run_cocg_fleet(&bank, suite, ocfg, 2);
  const auto retrain = run_cocg_fleet(nullptr, suite, ocfg, 2);
  EXPECT_EQ(shared_1.report, shared_2.report);
  EXPECT_EQ(shared_1.events, shared_2.events);
  EXPECT_EQ(shared_1.report, retrain.report);
  EXPECT_EQ(shared_1.events, retrain.events);
  ASSERT_FALSE(shared_1.events.empty());
}

// Every shard instantiated from one bank shares the bundle's refit memo.
// Under the steal runner, with more shards than threads, a game's seeded
// rotation fit is made at most once per kind however many shards replace
// its model; training fits directly and makes none.
TEST(FleetModelBank, RefitMemoFitsEachKindOncePerGame) {
  ObsGuard guard;
  const std::vector<game::GameSpec> suite = {game::make_contra()};
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;
  core::ModelBank bank;
  obs::Domain training;
  {
    obs::ScopedDomain sd(training);
    for (const auto& [name, tg] : core::train_suite(suite, ocfg)) {
      bank.add_trained(tg);
    }
  }
  EXPECT_FALSE(training.metrics.has_counter("predictor.refit_memo.misses"));

  FleetConfig cfg = small_config(4, 2);
  cfg.runner = RunnerKind::kSteal;
  core::CocgConfig ccfg;
  ccfg.replace_model_after = 1;  // hair trigger: replace on every miss
  Fleet f(cfg, [&](int) {
    return std::make_unique<core::CocgScheduler>(
        bank.instantiate_suite(suite), ccfg);
  });
  for (int i = 0; i < 8; ++i) f.add_server(hw::ServerSpec{});
  add_poisson(f, {&suite[0]}, 600.0);
  f.run(15 * 60 * 1000);

  int replacing_shards = 0;
  for (int i = 0; i < cfg.shards; ++i) {
    const auto& reg = f.shard_domain(i).metrics;
    if (reg.has_counter("scheduler.model_replacements") &&
        reg.counter_value("scheduler.model_replacements") > 0) {
      ++replacing_shards;
    }
  }
  ASSERT_GE(replacing_shards, 2);

  obs::MetricsRegistry merged;
  f.merge_metrics(merged);
  ASSERT_TRUE(merged.has_counter("predictor.refit_memo.misses"));
  ASSERT_TRUE(merged.has_counter("predictor.refit_memo.hits"));
  // At most one rotation fit per kind (DTC, RF, GBDT) of the one game over
  // the run, and at least one shard reused another's.
  EXPECT_LE(merged.counter_value("predictor.refit_memo.misses"), 3u);
  EXPECT_GT(merged.counter_value("predictor.refit_memo.hits"), 0u);
}

}  // namespace
}  // namespace cocg::fleet
