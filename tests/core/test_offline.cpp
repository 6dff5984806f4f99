// Dedicated offline-pipeline tests (train_game / train_suite wiring).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/check.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "game/library.h"

namespace cocg::core {
namespace {

TEST(OfflinePipeline, OperatorKUsesDesignedClusterCount) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 10;
  cfg.operator_k = true;
  const auto tg = train_game(game::make_devil_may_cry(), cfg);
  EXPECT_EQ(tg.bundle().chosen_k, 6);
  EXPECT_EQ(tg.profile().num_clusters(), 6);
}

TEST(OfflinePipeline, AutomaticElbowMode) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 10;
  cfg.operator_k = false;
  const auto tg = train_game(game::make_genshin(), cfg);
  // The Genshin elbow lands at its designed K (±1 depending on traces).
  EXPECT_GE(tg.bundle().chosen_k, 3);
  EXPECT_LE(tg.bundle().chosen_k, 5);
  EXPECT_FALSE(tg.bundle().sse_by_k.empty());
}

TEST(OfflinePipeline, ExplicitForcedKOverridesOperatorK) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 10;
  cfg.operator_k = true;
  cfg.profiler.forced_k = 3;  // explicit beats the convention
  const auto tg = train_game(game::make_devil_may_cry(), cfg);
  EXPECT_EQ(tg.bundle().chosen_k, 3);
}

TEST(OfflinePipeline, MeanRunDurationPlausible) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 0;
  const auto contra = train_game(game::make_contra(), cfg);
  const auto dota2 = train_game(game::make_dota2(), cfg);
  // Contra's runs are minutes; DOTA2's are tens of minutes.
  EXPECT_GT(contra.bundle().mean_run_duration_ms, 2 * 60 * 1000);
  EXPECT_LT(contra.bundle().mean_run_duration_ms, 20 * 60 * 1000);
  EXPECT_GT(dota2.bundle().mean_run_duration_ms,
            contra.bundle().mean_run_duration_ms);
}

TEST(OfflinePipeline, MoreCorpusNeverBreaksTraining) {
  for (int corpus : {0, 5, 40}) {
    OfflineConfig cfg;
    cfg.profiling_runs = 6;
    cfg.corpus_runs = corpus;
    cfg.seed = 200 + corpus;
    const auto tg = train_game(game::make_csgo(), cfg);
    EXPECT_TRUE(tg.predictor->active().pooled->trained()) << corpus;
    EXPECT_GE(tg.predictor->accuracy(), 0.0) << corpus;
  }
}

TEST(OfflinePipeline, SeedsChangeProfilesDeterministically) {
  OfflineConfig a;
  a.profiling_runs = 6;
  a.corpus_runs = 8;
  a.seed = 1;
  OfflineConfig b = a;
  b.seed = 2;
  const auto t1 = train_game(game::make_genshin(), a);
  const auto t2 = train_game(game::make_genshin(), a);
  const auto t3 = train_game(game::make_genshin(), b);
  // Same seed → identical profile; different seed → (almost surely)
  // different centroid noise.
  EXPECT_EQ(t1.profile().clusters[0].centroid,
            t2.profile().clusters[0].centroid);
  EXPECT_NE(t1.profile().clusters[0].centroid,
            t3.profile().clusters[0].centroid);
}

TEST(OfflinePipeline, ConfigValidation) {
  OfflineConfig bad;
  bad.profiling_runs = 0;
  EXPECT_THROW(train_game(game::make_contra(), bad), ContractError);
  bad.profiling_runs = 2;
  bad.players = 0;
  EXPECT_THROW(train_game(game::make_contra(), bad), ContractError);
}

TEST(OfflinePipeline, SuitePointersRemainValid) {
  // train_suite documents that spec pointers refer into the caller's
  // suite; verify the names line up after the map is built and moved.
  static const std::vector<game::GameSpec> suite = game::paper_suite();
  OfflineConfig cfg;
  cfg.profiling_runs = 5;
  cfg.corpus_runs = 5;
  auto models = train_suite(suite, cfg);
  auto moved = std::move(models);
  for (const auto& [name, tg] : moved) {
    ASSERT_NE(tg.spec, nullptr);
    EXPECT_EQ(tg.spec->name, name);
    EXPECT_EQ(tg.profile().game_name, name);
  }
}

// fleetbench and cocg_fleet train the paper suite with 8 profiling runs,
// 40 corpus runs and seed 42 before every run. This digest pins the bytes
// of all five bundles they build, so a set-up speed-up that moves one
// trained bit (a K-means assignment, a corpus frame mean, a forest split)
// fails here. Re-pin only on purpose; it last moved when the normal
// sampler became a ziggurat.
TEST(OfflinePipeline, FleetbenchSuiteMatchesParentDigest) {
  static const std::vector<game::GameSpec> suite = game::paper_suite();
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 40;
  cfg.seed = 42;
  std::uint64_t h = 14695981039346656037ull;
  std::size_t bytes = 0;
  for (const auto& [name, tg] : train_suite(suite, cfg)) {
    std::ostringstream os;
    write_bundle(tg.bundle(), os);
    for (const unsigned char c : os.str()) {
      h ^= c;
      h *= 1099511628211ull;
    }
    bytes += os.str().size();
  }
  EXPECT_EQ(h, 3825957069538900772ull) << bytes << " bundle bytes";
}

}  // namespace
}  // namespace cocg::core
