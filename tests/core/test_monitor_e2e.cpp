// End-to-end online monitoring accuracy: for every game, run fresh solo
// sessions, feed the monitor the same 5-second observations the online
// system would see, and score its stage judgements against the session's
// ground truth. This is the property the whole Fig. 8 loop rests on.
#include <gtest/gtest.h>

#include "core/offline.h"
#include "core/online_monitor.h"
#include "game/library.h"
#include "game/plan.h"
#include "game/session.h"

namespace cocg::core {
namespace {

struct E2eScore {
  double loading_detection = 0.0;  ///< loading/execution judged correctly
  double cluster_consistency = 0.0;  ///< judged stage contains true cluster
  std::size_t observations = 0;
};

E2eScore run_monitored_session(const TrainedGame& tg, std::size_t script,
                               std::uint64_t player, std::uint64_t seed) {
  const game::GameSpec& spec = *tg.spec;
  Rng rng(seed);
  auto plan = game::generate_plan(spec, script, player, rng);
  game::SessionConfig scfg;
  scfg.spike_prob = 0.0;
  game::GameSession session(SessionId{1}, &spec, script, std::move(plan),
                            rng.fork(), scfg);
  OnlineMonitor monitor(tg.predictor.get(), player, script);
  Rng noise = rng.fork();

  E2eScore score;
  std::size_t loading_hits = 0, cluster_hits = 0;
  TimeMs now = 0;
  session.begin(now);
  ResourceVector window_acc;
  int window_n = 0;
  while (!session.finished()) {
    const ResourceVector demand = session.demand();
    const bool true_loading =
        session.stage_kind() == game::StageKind::kLoading;
    const int true_cluster = session.current_cluster();
    // Full supply + 2% probe noise, like the platform's telemetry.
    ResourceVector usage = demand;
    for (std::size_t d = 0; d < kNumDims; ++d) {
      usage.at(d) *= 1.0 + noise.normal(0.0, 0.02);
    }
    window_acc += usage;
    ++window_n;
    if (window_n == 5) {  // one 5-second detection
      window_acc *= 1.0 / 5.0;
      monitor.observe(now, window_acc);
      ++score.observations;
      if (monitor.in_loading() == true_loading) ++loading_hits;
      if (!true_loading && monitor.current_stage() >= 0 &&
          !tg.profile().stage_type(monitor.current_stage()).loading) {
        const auto& sig =
            tg.profile().stage_type(monitor.current_stage()).clusters;
        // The judged stage's signature should contain a cluster whose
        // centroid is near the true cluster's draw; since catalogs are
        // learned, compare via the profile's own matcher.
        const int matched = tg.profile().match_cluster(usage);
        if (std::find(sig.begin(), sig.end(), matched) != sig.end()) {
          ++cluster_hits;
        }
      } else if (true_loading && monitor.in_loading()) {
        ++cluster_hits;  // loading agreement counts
      }
      window_acc = ResourceVector{};
      window_n = 0;
    }
    session.tick(now, demand);
    now += 1000;
    (void)true_cluster;
  }
  if (score.observations > 0) {
    score.loading_detection = static_cast<double>(loading_hits) /
                              static_cast<double>(score.observations);
    score.cluster_consistency = static_cast<double>(cluster_hits) /
                                static_cast<double>(score.observations);
  }
  return score;
}

class MonitorE2e : public ::testing::TestWithParam<int> {
 protected:
  static const std::vector<game::GameSpec>& suite() {
    static const std::vector<game::GameSpec> s = game::paper_suite();
    return s;
  }
};

TEST_P(MonitorE2e, OnlineJudgementTracksGroundTruth) {
  const auto& spec = suite()[static_cast<std::size_t>(GetParam())];
  OfflineConfig cfg;
  cfg.profiling_runs = 10;
  cfg.corpus_runs = 30;
  cfg.seed = 81;
  const TrainedGame tg = train_game(spec, cfg);

  E2eScore total;
  std::size_t loading_w = 0, cluster_w = 0;
  for (std::uint64_t run = 0; run < 4; ++run) {
    const auto score = run_monitored_session(
        tg, run % spec.scripts.size(), run % 3 + 1, 9000 + run);
    ASSERT_GT(score.observations, 0u) << spec.name;
    total.observations += score.observations;
    loading_w += static_cast<std::size_t>(score.loading_detection *
                                          score.observations);
    cluster_w += static_cast<std::size_t>(score.cluster_consistency *
                                          score.observations);
  }
  const double loading_acc =
      static_cast<double>(loading_w) / static_cast<double>(total.observations);
  const double stage_acc =
      static_cast<double>(cluster_w) / static_cast<double>(total.observations);
  // Loading/execution discrimination is the paper's Observation 2 — it
  // must be near-perfect (one detection of lag per transition allowed).
  EXPECT_GT(loading_acc, 0.85) << spec.name;
  // The judged stage should be consistent with the observed cluster for
  // the overwhelming majority of detections.
  EXPECT_GT(stage_acc, 0.85) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllGames, MonitorE2e, ::testing::Range(0, 5));

}  // namespace
}  // namespace cocg::core
