#include "core/frame_profiler.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "game/library.h"
#include "game/tracegen.h"

namespace cocg::core {
namespace {

std::vector<std::vector<ResourceVector>> lab_runs(const game::GameSpec& g,
                                                  int n, std::uint64_t seed) {
  std::vector<std::vector<ResourceVector>> runs;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(g.scripts.size()) - 1));
    runs.push_back(game::profile_run_frame_means(
                       g, script, static_cast<std::uint64_t>(i % 4 + 1),
                       rng.next_u64())
                       .means);
  }
  return runs;
}

ProfilerOutput profile_game(const game::GameSpec& g, int runs = 10,
                            std::uint64_t seed = 1) {
  ProfilerConfig cfg;
  cfg.forced_k = g.num_clusters();  // operator K, as in the paper
  FrameProfiler profiler(cfg);
  Rng rng(seed);
  return profiler.profile(g.name, lab_runs(g, runs, seed), rng);
}

TEST(FrameProfiler, DiscoversDesignedClusterCount) {
  const auto out = profile_game(game::make_genshin());
  EXPECT_EQ(out.profile.num_clusters(), 4);
  EXPECT_EQ(out.chosen_k, 4);
}

TEST(FrameProfiler, ElbowModeWithoutForcedK) {
  const game::GameSpec g = game::make_genshin();
  ProfilerConfig cfg;  // automatic elbow
  FrameProfiler profiler(cfg);
  Rng rng(3);
  const auto out = profiler.profile(g.name, lab_runs(g, 10, 3), rng);
  // Fig. 14's Genshin inflection is at 4; the automatic elbow may land one
  // off depending on the sampled runs.
  EXPECT_GE(out.chosen_k, 3);
  EXPECT_LE(out.chosen_k, 5);
  EXPECT_FALSE(out.sse_by_k.empty());
  // SSE non-increasing.
  for (std::size_t i = 1; i < out.sse_by_k.size(); ++i) {
    EXPECT_LE(out.sse_by_k[i], out.sse_by_k[i - 1] + 1e-9);
  }
}

TEST(FrameProfiler, IdentifiesLoadingCluster) {
  const auto out = profile_game(game::make_dota2());
  int loading_clusters = 0;
  for (const auto& c : out.profile.clusters) {
    if (c.loading) {
      ++loading_clusters;
      EXPECT_LT(c.centroid.gpu(), 15.0);
      EXPECT_GT(c.centroid.cpu(), 20.0);
    }
  }
  EXPECT_EQ(loading_clusters, 1);
  EXPECT_GE(out.profile.loading_stage_type, 0);
  EXPECT_TRUE(
      out.profile.stage_type(out.profile.loading_stage_type).loading);
}

TEST(FrameProfiler, StageTypeCountMatchesDesign) {
  // Genshin: loading + run + battle + fly + domain = 5 (Table I).
  const auto out = profile_game(game::make_genshin(), 14);
  EXPECT_EQ(out.profile.num_stage_types(), 5);
}

TEST(FrameProfiler, StageTypesRespectEmpirical2NBound) {
  for (const auto& g : game::paper_suite()) {
    const auto out = profile_game(g, 12, 7);
    EXPECT_LE(out.profile.num_stage_types(), 2 * out.profile.num_clusters())
        << g.name;
  }
}

TEST(FrameProfiler, OccurrencesAlternateLoadingExecution) {
  const auto out = profile_game(game::make_contra());
  std::size_t prev_run = SIZE_MAX;
  bool prev_loading = false;
  for (const auto& occ : out.occurrences) {
    EXPECT_LT(occ.start, occ.end);
    EXPECT_GE(occ.stage_type, 0);
    if (occ.run_idx == prev_run) {
      EXPECT_NE(occ.loading, prev_loading)
          << "consecutive occurrences must alternate kinds";
    }
    prev_run = occ.run_idx;
    prev_loading = occ.loading;
  }
}

TEST(FrameProfiler, DurationsAccumulated) {
  const auto out = profile_game(game::make_contra());
  for (const auto& st : out.profile.stage_types) {
    EXPECT_GT(st.occurrences, 0u);
    EXPECT_GT(st.mean_duration_ms, 0);
    EXPECT_GE(st.max_duration_ms, st.mean_duration_ms);
  }
}

TEST(FrameProfiler, PeakDemandExcludesLoading) {
  const auto out = profile_game(game::make_genshin(), 14);
  // Peak GPU tracks the battle cluster (≈78%), not the loading CPU.
  EXPECT_NEAR(out.profile.peak_demand.gpu(), 78.0, 6.0);
}

TEST(FrameProfiler, StageSequencesNonEmptyPerTrace) {
  const auto out = profile_game(game::make_dota2());
  ASSERT_EQ(out.stage_sequences.size(), 10u);
  for (const auto& seq : out.stage_sequences) {
    EXPECT_GE(seq.size(), 3u);  // loading + >=1 exec + loading
  }
}

TEST(FrameProfiler, RequiresTraces) {
  FrameProfiler profiler;
  Rng rng(1);
  EXPECT_THROW(profiler.profile("x", {}, rng), ContractError);
}

// --- GameProfile behaviour ---

TEST(GameProfile, MatchClusterNearest) {
  const auto out = profile_game(game::make_contra());
  const auto& p = out.profile;
  // The loading centroid itself matches the loading cluster.
  for (const auto& c : p.clusters) {
    EXPECT_EQ(p.match_cluster(c.centroid), c.id);
  }
}

TEST(GameProfile, MatchStageSignature) {
  const auto out = profile_game(game::make_genshin(), 14);
  const auto& p = out.profile;
  for (const auto& st : p.stage_types) {
    EXPECT_EQ(p.match_stage_signature(st.clusters), st.id);
  }
  EXPECT_EQ(p.match_stage_signature({99}), -1);
}

TEST(GameProfile, MatchExecutionStageForCluster) {
  const auto out = profile_game(game::make_genshin(), 14);
  const auto& p = out.profile;
  for (const auto& c : p.clusters) {
    const int st = p.match_execution_stage_for_cluster(c.id);
    if (c.loading) continue;  // loading clusters live in loading stages
    ASSERT_GE(st, 0);
    EXPECT_FALSE(p.stage_type(st).loading);
    // Most specific: the returned type contains the cluster.
    const auto& sig = p.stage_type(st).clusters;
    EXPECT_NE(std::find(sig.begin(), sig.end(), c.id), sig.end());
  }
}

TEST(GameProfile, StageDistanceZeroAtCentroid) {
  const auto out = profile_game(game::make_contra());
  const auto& p = out.profile;
  for (const auto& st : p.stage_types) {
    const auto& c = p.cluster(st.clusters[0]);
    EXPECT_NEAR(p.stage_distance(st.id, c.centroid), 0.0, 1e-12);
  }
}

// --- re-segmentation against a fixed profile ---

TEST(InferStageSequence, MatchesGroundTruthOnFreshRuns) {
  const game::GameSpec g = game::make_contra();
  const auto out = profile_game(g, 12);
  // A fresh run re-segmented with the profile yields alternating
  // loading/exec types of the right count.
  const auto run =
      game::profile_run_frame_means(g, 2, 9, 777);  // three levels
  const auto seq = infer_stage_sequence(out.profile, run.means);
  // Contra 3 levels: L E L E L E L = 7 stages.
  EXPECT_EQ(seq.size(), 7u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const bool loading =
        out.profile.stage_type(seq[i]).loading;
    EXPECT_EQ(loading, i % 2 == 0);
  }
}

TEST(InferStageSequence, GenshinTaskCountPreserved) {
  const game::GameSpec g = game::make_genshin();
  const auto out = profile_game(g, 14);
  const auto seq = infer_stage_sequence(
      out.profile, game::profile_run_frame_means(g, 0, 5, 888).means);
  int execs = 0;
  for (int st : seq) {
    if (!out.profile.stage_type(st).loading) ++execs;
  }
  EXPECT_EQ(execs, 4);  // run/battle/fly + domain
}

// Profiling and re-segmentation share one segmentation rule: a profiling
// run re-segmented against its own profile gives back the profiler's
// sequence for it, for every paper game, with operator and elbow K.
TEST(InferStageSequence, ReproducesProfilerSequencesOnProfilingRuns) {
  int compared = 0;
  for (const auto& g : game::paper_suite()) {
    for (std::uint64_t seed : {42ULL, 7ULL, 1234ULL}) {
      for (int forced_k : {g.num_clusters(), 0}) {
        const auto runs = lab_runs(g, 8, seed);
        ProfilerConfig cfg;
        cfg.forced_k = forced_k;
        Rng rng(seed);
        const auto out = FrameProfiler(cfg).profile(g.name, runs, rng);
        ASSERT_EQ(out.stage_sequences.size(), runs.size());
        for (std::size_t r = 0; r < runs.size(); ++r) {
          EXPECT_EQ(infer_stage_sequence(out.profile, runs[r]),
                    out.stage_sequences[r])
              << g.name << " seed " << seed << " K " << forced_k << " run "
              << r;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 240);
}

// Property: profiling is deterministic given the seed.
TEST(FrameProfiler, DeterministicGivenSeed) {
  const auto a = profile_game(game::make_dota2(), 8, 55);
  const auto b = profile_game(game::make_dota2(), 8, 55);
  EXPECT_EQ(a.profile.num_stage_types(), b.profile.num_stage_types());
  ASSERT_EQ(a.profile.clusters.size(), b.profile.clusters.size());
  for (std::size_t i = 0; i < a.profile.clusters.size(); ++i) {
    EXPECT_EQ(a.profile.clusters[i].centroid,
              b.profile.clusters[i].centroid);
  }
}

}  // namespace
}  // namespace cocg::core
