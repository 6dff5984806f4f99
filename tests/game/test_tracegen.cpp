#include "game/tracegen.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "game/library.h"
#include "game/plan.h"

namespace cocg::game {
namespace {

TEST(TraceGen, ProducesOneSamplePerSecond) {
  const GameSpec g = make_contra();
  const auto trace = profile_run(g, 0, 1, 42);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].t - trace[i - 1].t, 1000);
  }
}

TEST(TraceGen, GroundTruthCoversPlanStages) {
  const GameSpec g = make_contra();
  const auto trace = profile_run(g, 1, 1, 43);  // two levels
  std::set<int> stages;
  bool any_loading = false, any_exec = false;
  for (const auto& s : trace.samples()) {
    stages.insert(s.true_stage_type);
    (s.true_loading ? any_loading : any_exec) = true;
  }
  EXPECT_TRUE(any_loading);
  EXPECT_TRUE(any_exec);
  EXPECT_EQ(stages.size(), 2u);  // Contra: loading + level
}

TEST(TraceGen, UsageTracksClusterCentroids) {
  const GameSpec g = make_genshin();
  const auto trace = profile_run(g, 0, 1, 44);
  for (const auto& s : trace.samples()) {
    if (s.true_loading) {
      EXPECT_LT(s.usage.gpu(), 20.0);
      EXPECT_GT(s.usage.cpu(), 40.0);
    }
  }
}

TEST(TraceGen, MeasurementNoiseApplied) {
  const GameSpec g = make_contra();
  TraceGenConfig cfg;
  cfg.measurement_noise_rel = 0.0;
  const auto clean = profile_run(g, 0, 1, 45, cfg);
  cfg.measurement_noise_rel = 0.2;
  const auto noisy = profile_run(g, 0, 1, 45, cfg);
  // Identical seeds: session behaviour matches, only probe noise differs.
  ASSERT_EQ(clean.size(), noisy.size());
  int differing = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (std::abs(clean[i].usage.cpu() - noisy[i].usage.cpu()) > 1e-9) {
      ++differing;
    }
  }
  EXPECT_GT(differing, static_cast<int>(clean.size()) / 2);
}

TEST(TraceGen, DeterministicGivenSeed) {
  const GameSpec g = make_dota2();
  const auto a = profile_run(g, 0, 1, 46);
  const auto b = profile_run(g, 0, 1, 46);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].usage.cpu(), b[i].usage.cpu());
    EXPECT_EQ(a[i].true_stage_type, b[i].true_stage_type);
  }
}

TEST(TraceGen, FpsRecordedDuringExecution) {
  const GameSpec g = make_contra();
  const auto trace = profile_run(g, 0, 1, 47);
  bool exec_fps_seen = false;
  for (const auto& s : trace.samples()) {
    if (!s.true_loading && s.fps > 0.0) exec_fps_seen = true;
    if (s.true_loading) {
      EXPECT_EQ(s.fps, 0.0);
    }
  }
  EXPECT_TRUE(exec_fps_seen);
}

TEST(TraceGen, InvalidScriptThrows) {
  const GameSpec g = make_contra();
  EXPECT_THROW(profile_run(g, 9, 1, 48), ContractError);
  EXPECT_THROW(profile_run_frame_means(g, 9, 1, 48), ContractError);
  // A sample period longer than the slice could leave a slice empty, and
  // the profiler times a stage by its slice indices.
  TraceGenConfig cfg;
  cfg.sample_period_ms = kFrameSliceMs + 1;
  try {
    profile_run_frame_means(g, 0, 1, 48, cfg);
    FAIL() << "expected a ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5001 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("5000 ms"), std::string::npos) << what;
  }
  cfg.sample_period_ms = kFrameSliceMs;
  EXPECT_NO_THROW(profile_run_frame_means(g, 0, 1, 48, cfg));
}

// Streamed frame means are the traced run's slice means, bit for bit, and
// the reported run length is the trace's, for every game and for sample
// periods that do and do not divide the slice evenly.
TEST(TraceGen, StreamedFrameMeansMatchTracedSlices) {
  for (const GameSpec& g : paper_suite()) {
    for (std::uint64_t seed = 60; seed < 63; ++seed) {
      const std::size_t script = seed % g.scripts.size();
      TraceGenConfig cfg;
      cfg.sample_period_ms = seed == 61 ? 700 : 1000;
      const auto trace = profile_run(g, script, 3, seed, cfg);
      const auto slices = trace.to_frame_slices();
      const auto run = profile_run_frame_means(g, script, 3, seed, cfg);
      EXPECT_EQ(run.last_sample_ms, trace.end_time() - trace.start_time())
          << g.name << ' ' << seed;
      ASSERT_EQ(run.means.size(), slices.size()) << g.name << ' ' << seed;
      for (std::size_t i = 0; i < run.means.size(); ++i) {
        EXPECT_EQ(slices[i].start, static_cast<TimeMs>(i) * kFrameSliceMs);
        for (std::size_t d = 0; d < kNumDims; ++d) {
          EXPECT_EQ(run.means[i].at(d), slices[i].mean_usage.at(d))
              << g.name << ' ' << seed << " slice " << i;
        }
      }
    }
  }
}

TEST(Corpus, GeneratesRequestedRuns) {
  const GameSpec g = make_genshin();
  const auto corpus = generate_corpus(g, 25, 6, 49);
  ASSERT_EQ(corpus.size(), 25u);
  std::set<std::size_t> scripts;
  std::set<std::uint64_t> players;
  for (const auto& rec : corpus) {
    EXPECT_LT(rec.script_idx, g.scripts.size());
    EXPECT_GE(rec.player_id, 1u);
    EXPECT_LE(rec.player_id, 6u);
    EXPECT_FALSE(rec.stage_seq.empty());
    scripts.insert(rec.script_idx);
    players.insert(rec.player_id);
  }
  EXPECT_GE(scripts.size(), 2u);  // random script selection exercised
  EXPECT_GE(players.size(), 3u);
}

TEST(Corpus, SequencesAreValidStageTypes) {
  const GameSpec g = make_devil_may_cry();
  const auto corpus = generate_corpus(g, 10, 4, 50);
  for (const auto& rec : corpus) {
    for (int st : rec.stage_seq) {
      EXPECT_GE(st, 0);
      EXPECT_LT(st, g.num_stage_types());
    }
  }
}

TEST(Corpus, Preconditions) {
  const GameSpec g = make_contra();
  EXPECT_THROW(generate_corpus(g, 0, 1, 51), ContractError);
  EXPECT_THROW(generate_corpus(g, 1, 0, 51), ContractError);
}

}  // namespace
}  // namespace cocg::game
