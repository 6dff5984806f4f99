// The record→replay fixed point, end to end on a real fleet:
//  * strict replay of a recording reproduces the fleet report byte for
//    byte at 1, 2, and 8 worker threads, for both runners;
//  * re-recording the replay reproduces the schedule file byte for byte.
#include <gtest/gtest.h>

#include "schedcheck/harness.h"
#include "schedcheck/schedule.h"

namespace cocg::schedcheck {
namespace {

Scenario small(fleet::RunnerKind runner) {
  Scenario sc;
  sc.shards = 2;
  sc.threads = 2;
  sc.runner = runner;
  sc.minutes = 4;
  return sc;
}

class ReplayFixedPoint
    : public ::testing::TestWithParam<fleet::RunnerKind> {};

TEST_P(ReplayFixedPoint, StrictReplayIsByteIdenticalAcrossThreads) {
  const Scenario sc = small(GetParam());
  const RunOutcome rec = record_run(sc);
  ASSERT_FALSE(rec.aborted) << describe(rec.violations);
  ASSERT_GT(rec.recorded.total_records(), 0u);

  for (int threads : {1, 2, 8}) {
    Scenario rsc = sc;
    rsc.threads = threads;
    const RunOutcome rep =
        replay_run(rsc, rec.recorded, /*strict=*/true, /*rerecord=*/true);
    ASSERT_FALSE(rep.aborted) << describe(rep.violations);
    // Byte-identical fleet report from the schedule file alone.
    EXPECT_EQ(rep.report, rec.report) << "threads=" << threads;
    // Every decision was forced; nothing ran free, nothing was left over.
    EXPECT_EQ(rep.stats.forced, rep.stats.decisions);
    EXPECT_EQ(rep.stats.freerun, 0u);
    EXPECT_EQ(rep.stats.divergences, 0u);
    EXPECT_EQ(rep.stats.unconsumed, 0u);
    // Re-recording the replay reproduces the schedule byte for byte (the
    // meta echoes the replay's thread count — the one knob that may
    // legitimately differ — so pin it before comparing bytes).
    Schedule rerec = rep.recorded;
    rerec.set_meta("threads", std::to_string(sc.threads));
    EXPECT_EQ(schedule_text(rerec), schedule_text(rec.recorded))
        << "threads=" << threads;
  }
}

TEST_P(ReplayFixedPoint, RecordingItselfIsThreadCountInvariant) {
  // Not just replay: recording at different thread counts captures the
  // same decisions, because streams are per-decision-maker, not
  // per-thread.
  const Scenario base = small(GetParam());
  const RunOutcome rec2 = record_run(base);
  ASSERT_FALSE(rec2.aborted);
  for (int threads : {1, 8}) {
    Scenario sc = base;
    sc.threads = threads;
    const RunOutcome rec = record_run(sc);
    ASSERT_FALSE(rec.aborted);
    EXPECT_EQ(rec.report, rec2.report) << "threads=" << threads;
    Schedule s = rec.recorded;
    s.set_meta("threads", std::to_string(base.threads));
    EXPECT_EQ(schedule_text(s), schedule_text(rec2.recorded))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Runners, ReplayFixedPoint,
                         ::testing::Values(fleet::RunnerKind::kLockstep,
                                           fleet::RunnerKind::kSteal),
                         [](const auto& info) {
                           return std::string(
                               fleet::runner_kind_name(info.param));
                         });

TEST(ReplayScenarioMeta, RoundTripsThroughScheduleMeta) {
  Scenario sc;
  sc.shards = 3;
  sc.threads = 4;
  sc.runner = fleet::RunnerKind::kSteal;
  sc.policy = fleet::RouterPolicy::kRegionAffinity;
  sc.servers = 7;
  sc.gpus = 3;
  sc.minutes = 11;
  sc.games = {"Contra"};
  sc.arrivals_per_hour = 123.5;
  sc.seed = 99;
  Schedule s;
  s.streams.resize(4);
  scenario_to_meta(sc, s);
  // Keys this build does not read (here the removed tick-engine switch
  // that older artifacts carry) are ignored, not rejected.
  s.set_meta("quiescence", "0");
  const Scenario back = scenario_from_meta(s);
  EXPECT_EQ(back.shards, sc.shards);
  EXPECT_EQ(back.threads, sc.threads);
  EXPECT_EQ(back.runner, sc.runner);
  EXPECT_EQ(back.policy, sc.policy);
  EXPECT_EQ(back.servers, sc.servers);
  EXPECT_EQ(back.gpus, sc.gpus);
  EXPECT_EQ(back.minutes, sc.minutes);
  EXPECT_EQ(back.games, sc.games);
  EXPECT_EQ(back.arrivals_per_hour, sc.arrivals_per_hour);
  EXPECT_EQ(back.seed, sc.seed);
}

TEST(ReplayScenarioMeta, MissingKeysThrow) {
  Schedule s;
  s.streams.resize(3);
  EXPECT_THROW(scenario_from_meta(s), std::runtime_error);
}

}  // namespace
}  // namespace cocg::schedcheck
