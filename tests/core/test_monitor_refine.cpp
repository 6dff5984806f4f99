// Window-based stage refinement: multi-cluster stage types (§IV-A's
// "three bosses in a secret realm") are only identifiable from the union
// of clusters observed over time — the monitor must upgrade its judgement
// and score predictions against the resolved type.
#include <gtest/gtest.h>

#include <memory>

#include "core/online_monitor.h"
#include "core/stage_predictor.h"

namespace cocg::core {
namespace {

/// Profile with loading (0), two singleton types and one two-cluster
/// "realm" type {1,2} — like Genshin's Domain.
GameProfile realm_profile() {
  GameProfile p;
  p.game_name = "realm";
  p.norm_scale = default_norm_scale();
  const double gpu[3] = {5, 40, 75};
  const double cpu[3] = {50, 30, 45};
  for (int c = 0; c < 3; ++c) {
    ClusterInfo ci;
    ci.id = c;
    ci.centroid = ResourceVector{cpu[c], gpu[c], 1000, 1000};
    ci.loading = (c == 0);
    p.clusters.push_back(ci);
  }
  auto add_type = [&](int id, bool loading, std::vector<int> clusters) {
    StageTypeInfo st;
    st.id = id;
    st.loading = loading;
    st.clusters = std::move(clusters);
    ResourceVector peak;
    for (int c : st.clusters) {
      peak = ResourceVector::max(
          peak, p.clusters[static_cast<std::size_t>(c)].centroid);
    }
    st.peak_demand = peak;
    st.mean_demand = peak;
    st.mean_duration_ms = 120000;
    st.occurrences = 5;
    p.stage_types.push_back(st);
  };
  add_type(0, true, {0});
  add_type(1, false, {1});
  add_type(2, false, {2});
  add_type(3, false, {1, 2});  // the realm
  p.loading_stage_type = 0;
  p.peak_demand = p.clusters[2].centroid;
  return p;
}

StagePredictor realm_predictor(const GameProfile& p) {
  std::vector<TrainingRun> runs;
  for (int i = 0; i < 30; ++i) {
    runs.push_back(TrainingRun{{0, 3, 0, 1, 0}, 1, 0});  // realm → solo
  }
  Rng rng(1);
  return StagePredictor(std::make_shared<const GameBundle>(
      train_predictor(std::make_shared<const GameProfile>(p),
                      PredictorConfig{}, std::move(runs), rng)));
}

struct Fixture {
  StagePredictor predictor = realm_predictor(realm_profile());
  const GameProfile& profile = predictor.profile();
  OnlineMonitor monitor{&predictor, 1, 0};

  MonitorEvent step(int cluster, TimeMs& t) {
    const auto ev =
        monitor.observe(t, profile.cluster(cluster).centroid);
    t += 5000;
    return ev;
  }
};

TEST(MonitorRefine, SignatureCompletionUpgradesJudgement) {
  Fixture f;
  TimeMs t = 0;
  f.step(0, t);
  f.step(0, t);
  // The realm opens showing only cluster 1 → judged as the singleton.
  EXPECT_EQ(f.step(1, t), MonitorEvent::kEnteredExecution);
  EXPECT_EQ(f.monitor.current_stage(), 1);
  f.step(1, t);
  // Cluster 2 appears: the window {1,2} completes the realm signature.
  EXPECT_EQ(f.step(2, t), MonitorEvent::kStageRefined);
  EXPECT_EQ(f.monitor.current_stage(), 3);
  // The upgrade rewrites history, not the error counters.
  EXPECT_EQ(f.monitor.exec_history(), (std::vector<int>{3}));
  EXPECT_EQ(f.monitor.callbacks(), 0);
  EXPECT_EQ(f.monitor.consecutive_errors(), 0);
}

TEST(MonitorRefine, RealmPredictionScoredAsHit) {
  Fixture f;
  TimeMs t = 0;
  f.step(0, t);
  f.step(0, t);
  EXPECT_EQ(f.monitor.predicted_next(), 3);  // corpus opens with the realm
  f.step(1, t);
  f.step(2, t);  // refined to 3
  f.step(1, t);
  f.step(0, t);
  f.step(0, t);  // loading confirmed → realm scored vs prediction 3
  EXPECT_EQ(f.monitor.prediction_hits(), 1);
  EXPECT_EQ(f.monitor.prediction_misses(), 0);
}

TEST(MonitorRefine, RefinedAllocationCoversRealmPeak) {
  Fixture f;
  TimeMs t = 0;
  f.step(0, t);
  f.step(0, t);
  f.step(1, t);
  const double before = f.monitor.recommended_allocation().gpu();
  f.step(2, t);  // refinement
  const double after = f.monitor.recommended_allocation().gpu();
  EXPECT_LT(before, after);
  EXPECT_DOUBLE_EQ(after, f.profile.stage_type(3).peak_demand.gpu());
}

TEST(MonitorRefine, MinorityClusterDoesNotUpgrade) {
  Fixture f;
  TimeMs t = 0;
  f.step(0, t);
  f.step(0, t);
  f.step(1, t);
  // Many cluster-1 detections, a single cluster-2 blip (< 20% share):
  // the window filter rejects the upgrade; the blip is at most a pending
  // jump.
  for (int i = 0; i < 8; ++i) f.step(1, t);
  const auto ev = f.step(2, t);
  EXPECT_NE(ev, MonitorEvent::kStageRefined);
  EXPECT_EQ(f.monitor.current_stage(), 1);
}

TEST(MonitorRefine, TransientLoadingDipResumesWindow) {
  Fixture f;
  TimeMs t = 0;
  f.step(0, t);
  f.step(0, t);
  f.step(1, t);
  f.step(2, t);  // refined to realm
  ASSERT_EQ(f.monitor.current_stage(), 3);
  // A one-detection loading dip, then the realm continues: the judgement
  // returns and no prediction is scored for the interruption.
  EXPECT_EQ(f.step(0, t), MonitorEvent::kEnteredLoading);
  EXPECT_EQ(f.step(2, t), MonitorEvent::kRehearsalCallback);
  EXPECT_EQ(f.monitor.current_stage(), 3);
  EXPECT_EQ(f.monitor.prediction_hits() + f.monitor.prediction_misses(), 0);
  EXPECT_EQ(f.monitor.exec_history(), (std::vector<int>{3}));
}

}  // namespace
}  // namespace cocg::core
