#include "core/online_monitor.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/check.h"
#include "core/stage_predictor.h"

namespace cocg::core {
namespace {

/// Profile with loading (type 0) and three single-cluster execution types.
GameProfile toy_profile() {
  GameProfile p;
  p.game_name = "toy";
  p.norm_scale = default_norm_scale();
  const double gpu[4] = {5, 30, 60, 90};   // cluster GPU centroids
  const double cpu[4] = {50, 30, 40, 45};  // loading = high CPU / low GPU
  for (int c = 0; c < 4; ++c) {
    ClusterInfo ci;
    ci.id = c;
    ci.centroid = ResourceVector{cpu[c], gpu[c], 1000, 1000};
    ci.loading = (c == 0);
    p.clusters.push_back(ci);
  }
  for (int t = 0; t < 4; ++t) {
    StageTypeInfo st;
    st.id = t;
    st.loading = (t == 0);
    st.clusters = {t};
    st.peak_demand = p.clusters[static_cast<std::size_t>(t)].centroid;
    st.mean_demand = st.peak_demand;
    st.mean_duration_ms = 100000;
    st.occurrences = 5;
    p.stage_types.push_back(st);
  }
  p.loading_stage_type = 0;
  p.peak_demand = p.clusters[3].centroid;
  return p;
}

StagePredictor trained_predictor(const GameProfile& p) {
  std::vector<TrainingRun> runs;
  for (int i = 0; i < 30; ++i) {
    runs.push_back(TrainingRun{{0, 1, 0, 2, 0, 3, 0}, 1, 0});
  }
  Rng rng(1);
  return StagePredictor(std::make_shared<const GameBundle>(
      train_predictor(std::make_shared<const GameProfile>(p),
                      PredictorConfig{}, std::move(runs), rng)));
}

ResourceVector usage_of(const GameProfile& p, int cluster) {
  return p.cluster(cluster).centroid;
}

struct Fixture {
  StagePredictor predictor = trained_predictor(toy_profile());
  const GameProfile& profile = predictor.profile();
  OnlineMonitor monitor{&predictor, 1, 0};
};

TEST(OnlineMonitor, FirstObservationExecution) {
  Fixture f;
  const auto ev = f.monitor.observe(0, usage_of(f.profile, 1));
  EXPECT_EQ(ev, MonitorEvent::kEnteredExecution);
  EXPECT_EQ(f.monitor.current_stage(), 1);
  EXPECT_FALSE(f.monitor.in_loading());
}

TEST(OnlineMonitor, FirstObservationLoadingPredicts) {
  Fixture f;
  const auto ev = f.monitor.observe(0, usage_of(f.profile, 0));
  EXPECT_EQ(ev, MonitorEvent::kEnteredLoading);
  EXPECT_TRUE(f.monitor.in_loading());
  EXPECT_EQ(f.monitor.predicted_next(), 1);  // chain opens with 1
}

TEST(OnlineMonitor, FullChainWithCorrectPredictions) {
  Fixture f;
  TimeMs t = 0;
  auto step = [&](int cluster) {
    const auto ev = f.monitor.observe(t, usage_of(f.profile, cluster));
    t += 5000;
    return ev;
  };
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  EXPECT_EQ(step(0), MonitorEvent::kSameStage);
  EXPECT_EQ(step(1), MonitorEvent::kEnteredExecution);
  EXPECT_EQ(step(1), MonitorEvent::kSameStage);
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  EXPECT_EQ(f.monitor.predicted_next(), 2);
  // Stage 1 is scored once the loading judgement is confirmed (deferred
  // scoring lets a transient dip withdraw cleanly).
  EXPECT_EQ(f.monitor.prediction_hits(), 0);
  EXPECT_EQ(step(0), MonitorEvent::kSameStage);  // confirm → stage 1 scored
  EXPECT_EQ(f.monitor.prediction_hits(), 1);
  EXPECT_EQ(step(2), MonitorEvent::kEnteredExecution);
  EXPECT_EQ(step(2), MonitorEvent::kSameStage);
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  EXPECT_EQ(step(0), MonitorEvent::kSameStage);  // confirm → stage 2 scored
  EXPECT_EQ(f.monitor.prediction_hits(), 2);
  EXPECT_EQ(f.monitor.prediction_misses(), 0);
  EXPECT_EQ(f.monitor.exec_history(), (std::vector<int>{1, 2}));
}

TEST(OnlineMonitor, PredictionMissCounted) {
  Fixture f;
  TimeMs t = 0;
  auto step = [&](int cluster) {
    const auto ev = f.monitor.observe(t, usage_of(f.profile, cluster));
    t += 5000;
    return ev;
  };
  step(0);
  step(0);
  // Predicted 1, but the game enters 3; the miss lands when the stage is
  // finalized at the next confirmed loading.
  step(3);
  EXPECT_EQ(f.monitor.current_stage(), 3);
  EXPECT_EQ(f.monitor.prediction_misses(), 0);  // not yet scored
  step(3);
  step(0);
  step(0);  // confirm → stage 3 finalized, prediction 1 scored as a miss
  EXPECT_EQ(f.monitor.prediction_misses(), 1);
  EXPECT_EQ(f.monitor.consecutive_errors(), 1);
}

TEST(OnlineMonitor, RehearsalCallbackStageJump) {
  Fixture f;
  TimeMs t = 0;
  f.monitor.observe(t, usage_of(f.profile, 1));
  // One stray detection → pending, not a jump (Fig. 10 transient).
  t += 5000;
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 2)),
            MonitorEvent::kPendingJump);
  EXPECT_EQ(f.monitor.current_stage(), 1);
  // Back to 1: the pending jump is dropped.
  t += 5000;
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 1)),
            MonitorEvent::kSameStage);
  // Two consecutive detections of 2 → the callback re-matches the stage.
  t += 5000;
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 2)),
            MonitorEvent::kPendingJump);
  t += 5000;
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 2)),
            MonitorEvent::kRehearsalCallback);
  EXPECT_EQ(f.monitor.current_stage(), 2);
  EXPECT_EQ(f.monitor.callbacks(), 1);
}

TEST(OnlineMonitor, LoadingMisjudgeJumpsBack) {
  Fixture f;
  TimeMs t = 0;
  f.monitor.observe(t, usage_of(f.profile, 1));
  t += 5000;
  // A dip looks like loading...
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 0)),
            MonitorEvent::kEnteredLoading);
  t += 5000;
  // ...but the very next detection matches stage 1 again → jump back
  // (§IV-B2 callback case 2).
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 1)),
            MonitorEvent::kRehearsalCallback);
  EXPECT_EQ(f.monitor.current_stage(), 1);
  // History unaffected: only the initial stage is recorded.
  EXPECT_EQ(f.monitor.exec_history(), (std::vector<int>{1}));
}

TEST(OnlineMonitor, RealLoadingAfterTwoDetectionsNotWithdrawn) {
  Fixture f;
  TimeMs t = 0;
  f.monitor.observe(t, usage_of(f.profile, 1));
  t += 5000;
  f.monitor.observe(t, usage_of(f.profile, 0));
  t += 5000;
  f.monitor.observe(t, usage_of(f.profile, 0));  // second loading detection
  t += 5000;
  // Exit into the same stage type as before is now a genuine transition.
  EXPECT_EQ(f.monitor.observe(t, usage_of(f.profile, 1)),
            MonitorEvent::kEnteredExecution);
  EXPECT_EQ(f.monitor.exec_history(), (std::vector<int>{1, 1}));
}

// Cached outlooks are keyed on version(): whenever the judged stage or the
// execution history changes, the version must change too. The drive covers
// loading and execution entry, a stage jump, a loading jump-back, a
// signature refinement, and a loading confirmation that relabels the last
// history entry while the judged stage stays put.
TEST(OnlineMonitor, VersionChangesWheneverJudgedStateChanges) {
  GameProfile toy = toy_profile();
  {
    // A two-cluster type {2, 3} that a window of 2s and 3s resolves to.
    StageTypeInfo st = toy.stage_types[2];
    st.id = 4;
    st.clusters = {2, 3};
    toy.stage_types.push_back(st);
  }
  const StagePredictor predictor = trained_predictor(toy);
  const GameProfile& profile = predictor.profile();
  OnlineMonitor monitor(&predictor, 1, 0);

  std::set<MonitorEvent> seen;
  int relabels_in_loading = 0;
  TimeMs t = 0;
  auto step = [&](int cluster) {
    const int stage = monitor.current_stage();
    const std::vector<int> history = monitor.exec_history();
    const std::uint64_t version = monitor.version();
    const auto ev = monitor.observe(t, usage_of(profile, cluster));
    t += 5000;
    seen.insert(ev);
    const bool changed = monitor.current_stage() != stage ||
                         monitor.exec_history() != history;
    if (changed) {
      EXPECT_NE(monitor.version(), version)
          << "t=" << t << " " << monitor_event_name(ev);
    }
    if (monitor.current_stage() == stage &&
        monitor.exec_history() != history) {
      ++relabels_in_loading;
    }
    return ev;
  };
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  step(0);
  EXPECT_EQ(step(1), MonitorEvent::kEnteredExecution);
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  EXPECT_EQ(step(1), MonitorEvent::kRehearsalCallback);  // jump-back
  EXPECT_EQ(step(2), MonitorEvent::kPendingJump);
  EXPECT_EQ(step(2), MonitorEvent::kRehearsalCallback);  // stage jump
  EXPECT_EQ(step(3), MonitorEvent::kStageRefined);
  EXPECT_EQ(monitor.current_stage(), 4);
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  step(0);
  EXPECT_EQ(step(1), MonitorEvent::kEnteredExecution);
  // Alternating strays never confirm a jump, but leave the window
  // resolving to type 4; the confirmed loading relabels the entry.
  for (int c : {2, 3, 2, 3, 2}) step(c);
  EXPECT_EQ(monitor.exec_history(), (std::vector<int>{4, 1}));
  EXPECT_EQ(step(0), MonitorEvent::kEnteredLoading);
  step(0);
  EXPECT_EQ(monitor.exec_history(), (std::vector<int>{4, 4}));
  EXPECT_EQ(relabels_in_loading, 1);
  EXPECT_EQ(seen.size(), 6u);  // every MonitorEvent
}

TEST(OnlineMonitor, RecommendedAllocationExecution) {
  Fixture f;
  f.monitor.observe(0, usage_of(f.profile, 2));
  // No prediction errors yet: allocation = the judged stage's peak.
  const ResourceVector rec = f.monitor.recommended_allocation();
  EXPECT_EQ(rec, f.profile.stage_type(2).peak_demand);
}

TEST(OnlineMonitor, RedundancyAppliedAfterError) {
  Fixture f;
  TimeMs t = 0;
  auto step = [&](int cluster) {
    const auto ev = f.monitor.observe(t, usage_of(f.profile, cluster));
    t += 5000;
    return ev;
  };
  step(0);
  step(0);
  step(2);  // predicted 1, entered 2
  step(2);
  step(0);
  step(0);  // confirm → miss scored
  ASSERT_GT(f.monitor.consecutive_errors(), 0);
  // The next execution stage's allocation carries S = (1−P)·M, capped at
  // the game peak M.
  step(3);
  const ResourceVector rec = f.monitor.recommended_allocation();
  const ResourceVector expect = ResourceVector::min(
      f.profile.stage_type(3).peak_demand + f.predictor.redundancy(),
      f.profile.peak_demand);
  EXPECT_EQ(rec, expect);
  EXPECT_TRUE(rec.fits_within(f.profile.peak_demand));
}

TEST(OnlineMonitor, RecommendedAllocationLoadingPreProvisions) {
  Fixture f;
  f.monitor.observe(0, usage_of(f.profile, 0));
  const ResourceVector rec = f.monitor.recommended_allocation();
  // Covers both the loading draw and the predicted stage-1 peak.
  EXPECT_GE(rec.gpu(),
            f.profile.stage_type(1).peak_demand.gpu() - 1e-9);
  EXPECT_GE(rec.cpu(),
            f.profile.stage_type(0).peak_demand.cpu() - 1e-9);
}

TEST(OnlineMonitor, RecommendedAllocationBeforeFirstObservation) {
  Fixture f;
  EXPECT_EQ(f.monitor.recommended_allocation(), f.profile.peak_demand);
}

TEST(OnlineMonitor, PredictedPeaksStartWithCurrent) {
  Fixture f;
  f.monitor.observe(0, usage_of(f.profile, 1));
  const auto peaks = f.monitor.predicted_peaks(2);
  ASSERT_GE(peaks.size(), 3u);
  EXPECT_EQ(peaks[0], f.profile.stage_type(1).peak_demand);
  EXPECT_EQ(peaks[1], f.profile.stage_type(2).peak_demand);
}

TEST(OnlineMonitor, StageElapsedTracksTime) {
  Fixture f;
  f.monitor.observe(0, usage_of(f.profile, 1));
  EXPECT_EQ(f.monitor.stage_elapsed_ms(15000), 15000);
}

TEST(OnlineMonitor, ErrorStreakResets) {
  Fixture f;
  TimeMs t = 0;
  auto step = [&](int cluster) {
    const auto ev = f.monitor.observe(t, usage_of(f.profile, cluster));
    t += 5000;
    return ev;
  };
  step(0);
  step(0);
  step(3);  // predicted 1, entered 3
  step(3);
  step(0);
  step(0);  // confirm → miss scored
  EXPECT_EQ(f.monitor.consecutive_errors(), 1);
  f.monitor.reset_error_streak();
  EXPECT_EQ(f.monitor.consecutive_errors(), 0);
}

TEST(OnlineMonitor, ConstructorValidation) {
  EXPECT_THROW(OnlineMonitor(nullptr, 1, 0), ContractError);
}

}  // namespace
}  // namespace cocg::core
