// Generative sweep: random (but valid) game specs pushed through the whole
// pipeline — plan generation, session simulation, profiling, catalog
// construction. The invariants that must hold for ANY title, not just the
// five paper games.
#include <gtest/gtest.h>

#include <set>

#include "core/frame_profiler.h"
#include "game/plan.h"
#include "game/session.h"
#include "game/tracegen.h"

namespace cocg::game {
namespace {

/// A random valid GameSpec: 2-6 clusters (one loading), 2-6 stage types,
/// 1-3 scripts with random segments.
GameSpec random_spec(Rng& rng) {
  GameSpec g;
  g.id = GameId{100 + rng.next_u64() % 1000};
  g.name = "fuzz-" + std::to_string(g.id.value);
  g.category = static_cast<GameCategory>(rng.uniform_int(0, 3));
  g.fps_cap = rng.chance(0.5) ? 60.0 : 0.0;
  g.short_game = rng.chance(0.4);

  const int n_clusters = static_cast<int>(rng.uniform_int(2, 6));
  for (int c = 0; c < n_clusters; ++c) {
    FrameClusterSpec fc;
    fc.id = c;
    fc.name = "c" + std::to_string(c);
    if (c == 0) {
      // Loading signature.
      fc.centroid = ResourceVector{rng.uniform(40, 70), rng.uniform(3, 9),
                                   rng.uniform(500, 2500),
                                   rng.uniform(800, 3000)};
      fc.fps_base = 0.0;
    } else {
      fc.centroid = ResourceVector{rng.uniform(15, 55), rng.uniform(20, 85),
                                   rng.uniform(500, 3500),
                                   rng.uniform(800, 4000)};
      fc.fps_base = rng.uniform(40, 200);
    }
    fc.jitter = fc.centroid * 0.05;
    for (std::size_t d = 0; d < kNumDims; ++d) {
      fc.jitter.at(d) = std::max(fc.jitter.at(d), 0.5);
    }
    g.clusters.push_back(fc);
  }

  // Loading stage type + 1..5 execution types over random cluster subsets.
  StageTypeSpec loading;
  loading.id = 0;
  loading.name = "Loading";
  loading.kind = StageKind::kLoading;
  loading.clusters = {0};
  loading.min_dwell_ms = sec_to_ms(rng.uniform(5, 10));
  loading.max_dwell_ms = loading.min_dwell_ms + sec_to_ms(rng.uniform(1, 15));
  loading.shuffle_clusters = false;
  g.stage_types.push_back(loading);
  g.loading_stage_type = 0;

  const int n_types = static_cast<int>(rng.uniform_int(1, 5));
  for (int t = 1; t <= n_types; ++t) {
    StageTypeSpec st;
    st.id = t;
    st.name = "T" + std::to_string(t);
    st.kind = StageKind::kExecution;
    std::set<int> members;
    const int n_members =
        static_cast<int>(rng.uniform_int(1, std::min(2, n_clusters - 1)));
    while (static_cast<int>(members.size()) < n_members) {
      members.insert(static_cast<int>(rng.uniform_int(1, n_clusters - 1)));
    }
    st.clusters.assign(members.begin(), members.end());
    st.min_dwell_ms = sec_to_ms(rng.uniform(30, 120));
    st.max_dwell_ms = st.min_dwell_ms + sec_to_ms(rng.uniform(10, 120));
    g.stage_types.push_back(st);
  }

  const int n_scripts = static_cast<int>(rng.uniform_int(1, 3));
  for (int s = 0; s < n_scripts; ++s) {
    ScriptSpec sc;
    sc.name = "s" + std::to_string(s);
    sc.description = "fuzz script";
    const int n_segments = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n_segments; ++i) {
      ScriptSegment seg;
      seg.stage_type = static_cast<int>(rng.uniform_int(1, n_types));
      seg.min_repeat = 1;
      seg.max_repeat = static_cast<int>(rng.uniform_int(1, 3));
      seg.skip_prob = rng.chance(0.3) ? rng.uniform(0.0, 0.4) : 0.0;
      sc.segments.push_back(seg);
    }
    sc.player_order = rng.chance(0.3);
    g.scripts.push_back(sc);
  }
  return g;
}

class RandomSpecPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSpecPipeline, PlanInvariantsHold) {
  Rng rng(GetParam());
  const GameSpec g = random_spec(rng);
  for (std::size_t script = 0; script < g.scripts.size(); ++script) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto plan = generate_plan(g, script, rep + 1, rng);
      ASSERT_FALSE(plan.empty());
      EXPECT_EQ(plan.front().stage_type, g.loading_stage_type);
      EXPECT_EQ(plan.back().stage_type, g.loading_stage_type);
      for (std::size_t i = 1; i < plan.size(); ++i) {
        EXPECT_NE(g.stage_type(plan[i].stage_type).kind,
                  g.stage_type(plan[i - 1].stage_type).kind);
      }
      for (const auto& ps : plan) {
        const auto& st = g.stage_type(ps.stage_type);
        EXPECT_GE(ps.planned_dwell_ms, st.min_dwell_ms);
        EXPECT_LE(ps.planned_dwell_ms, st.max_dwell_ms);
      }
    }
  }
}

TEST_P(RandomSpecPipeline, SessionsTerminateWithSaneAccounting) {
  Rng rng(GetParam() ^ 0xabcd);
  const GameSpec g = random_spec(rng);
  auto plan = generate_plan(g, 0, 1, rng);
  DurationMs nominal = 0;
  for (const auto& ps : plan) nominal += ps.planned_dwell_ms;
  SessionConfig cfg;
  cfg.spike_prob = 0.0;
  GameSession s(SessionId{1}, &g, 0, std::move(plan), rng.fork(), cfg);
  TimeMs now = 0;
  s.begin(now);
  // Hard bound: at full supply a session never exceeds nominal + one tick
  // per stage.
  const DurationMs bound =
      nominal + 1000 * static_cast<DurationMs>(s.plan_size()) + 1000;
  while (!s.finished()) {
    ASSERT_LE(s.elapsed_ms(), bound) << g.name;
    s.tick(now, s.demand());
    now += 1000;
  }
  EXPECT_EQ(s.execution_ms() + s.loading_ms(), s.elapsed_ms());
  EXPECT_EQ(s.loading_extension_ms(), 0);
  EXPECT_GE(s.mean_fps_ratio(), 0.99);
}

TEST_P(RandomSpecPipeline, ProfilerHandlesArbitraryTitles) {
  Rng rng(GetParam() ^ 0x1234);
  const GameSpec g = random_spec(rng);
  std::vector<std::vector<ResourceVector>> runs;
  for (int r = 0; r < 5; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(g.scripts.size()) - 1));
    runs.push_back(profile_run_frame_means(g, script,
                                           static_cast<std::uint64_t>(r + 1),
                                           rng.next_u64())
                       .means);
  }
  core::ProfilerConfig cfg;
  cfg.forced_k = g.num_clusters();
  core::FrameProfiler profiler(cfg);
  const auto out = profiler.profile(g.name, runs, rng);
  EXPECT_GE(out.profile.num_stage_types(), 1);
  EXPECT_LE(out.profile.num_stage_types(),
            1 << out.profile.num_clusters());  // hard 2^N bound (§IV-A2)
  // Every stage type's signature references real clusters.
  for (const auto& st : out.profile.stage_types) {
    for (int c : st.clusters) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, out.profile.num_clusters());
    }
  }
  // Sequences re-derived against the profile stay within the catalog.
  for (const auto& means : runs) {
    for (int st : core::infer_stage_sequence(out.profile, means)) {
      EXPECT_GE(st, 0);
      EXPECT_LT(st, out.profile.num_stage_types());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpecPipeline,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL,
                                           55ULL, 66ULL, 77ULL, 88ULL));

}  // namespace
}  // namespace cocg::game
