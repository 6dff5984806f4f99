#include "core/migration.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/offline.h"

#include "common/check.h"
#include "core/frame_profiler.h"
#include "game/library.h"
#include "game/platform_scaling.h"
#include "game/tracegen.h"

namespace cocg::core {
namespace {

GameProfile profile_on(const game::GameSpec& spec, std::uint64_t seed) {
  std::vector<std::vector<ResourceVector>> runs;
  Rng rng(seed);
  for (int r = 0; r < 10; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    runs.push_back(game::profile_run_frame_means(
                       spec, script, static_cast<std::uint64_t>(r % 4 + 1),
                       rng.next_u64())
                       .means);
  }
  ProfilerConfig cfg;
  cfg.forced_k = spec.num_clusters();
  FrameProfiler profiler(cfg);
  return profiler.profile(spec.name, runs, rng).profile;
}

// --- platform scaling of game specs ---

TEST(PlatformScaling, UtilizationInverseToPerf) {
  const game::GameSpec base = game::make_genshin();
  const game::GameSpec weak = game::scale_for_platform(base, 0.5, 0.5);
  // Half the compute → double the utilization (clamped at 100).
  EXPECT_NEAR(weak.cluster(1).centroid.cpu(),
              std::min(100.0, base.cluster(1).centroid.cpu() * 2.0), 1e-9);
  EXPECT_NEAR(weak.cluster(2).centroid.gpu(), 100.0, 1e-9);  // 78*2 clamps
  // Memory dims unchanged: the assets are the same.
  EXPECT_EQ(weak.cluster(1).centroid.gpu_mem(),
            base.cluster(1).centroid.gpu_mem());
}

TEST(PlatformScaling, StageStructureUnchanged) {
  const game::GameSpec base = game::make_dota2();
  const game::GameSpec strong =
      game::scale_for_platform(base, hw::flagship_sku());
  EXPECT_EQ(strong.num_clusters(), base.num_clusters());
  EXPECT_EQ(strong.num_stage_types(), base.num_stage_types());
  for (int t = 0; t < base.num_stage_types(); ++t) {
    EXPECT_EQ(strong.stage_type(t).clusters, base.stage_type(t).clusters);
    EXPECT_EQ(strong.stage_type(t).min_dwell_ms,
              base.stage_type(t).min_dwell_ms);
  }
}

TEST(PlatformScaling, UncappedFpsScalesWithGpu) {
  const game::GameSpec dota2 = game::make_dota2();  // uncapped
  const game::GameSpec strong = game::scale_for_platform(dota2, 1.0, 2.0);
  EXPECT_NEAR(strong.cluster(1).fps_base, dota2.cluster(1).fps_base * 2.0,
              1e-9);
  const game::GameSpec genshin = game::make_genshin();  // locked 60
  const game::GameSpec strong2 = game::scale_for_platform(genshin, 1.0, 2.0);
  EXPECT_EQ(strong2.cluster(1).fps_base, genshin.cluster(1).fps_base);
}

TEST(PlatformScaling, Preconditions) {
  const game::GameSpec g = game::make_contra();
  EXPECT_THROW(game::scale_for_platform(g, 0.0, 1.0), ContractError);
  EXPECT_THROW(game::scale_for_platform(g, 1.0, -1.0), ContractError);
}

// --- profile migration ---

TEST(Migration, IdentityWhenSameSku) {
  const auto p = profile_on(game::make_contra(), 11);
  const auto m =
      migrate_profile(p, hw::baseline_sku(), hw::baseline_sku());
  EXPECT_LT(profile_centroid_error(p, m), 1e-12);
}

TEST(Migration, RoundTripRecoversProfile) {
  const auto p = profile_on(game::make_dota2(), 12);
  const auto there = migrate_profile(p, hw::baseline_sku(),
                                     hw::flagship_sku());
  const auto back =
      migrate_profile(there, hw::flagship_sku(), hw::baseline_sku());
  EXPECT_LT(profile_centroid_error(p, back), 1e-9);
}

TEST(Migration, CatalogPreserved) {
  const auto p = profile_on(game::make_genshin(), 13);
  const auto m = migrate_profile(p, hw::baseline_sku(), hw::budget_sku());
  ASSERT_EQ(m.num_stage_types(), p.num_stage_types());
  for (int t = 0; t < p.num_stage_types(); ++t) {
    EXPECT_EQ(m.stage_type(t).clusters, p.stage_type(t).clusters);
    EXPECT_EQ(m.stage_type(t).loading, p.stage_type(t).loading);
    EXPECT_EQ(m.stage_type(t).mean_duration_ms,
              p.stage_type(t).mean_duration_ms);
  }
  EXPECT_EQ(m.loading_stage_type, p.loading_stage_type);
}

TEST(Migration, MigratedMatchesFreshProfileOnTarget) {
  // The §IV-D claim end-to-end: profile on the baseline, migrate to the
  // budget SKU, and compare against a profile freshly measured from the
  // game's behaviour on that SKU — "obtained in a single experiment".
  const game::GameSpec base = game::make_genshin();
  const hw::ServerSpec target = hw::budget_sku();
  const auto base_profile = profile_on(base, 14);
  const auto migrated =
      migrate_profile(base_profile, hw::baseline_sku(), target);

  const game::GameSpec on_target = game::scale_for_platform(base, target);
  const auto fresh = profile_on(on_target, 15);

  ASSERT_EQ(migrated.num_clusters(), fresh.num_clusters());
  EXPECT_EQ(migrated.num_stage_types(), fresh.num_stage_types());
  // Centroids agree closely in normalized space (profiling noise only).
  EXPECT_LT(profile_centroid_error(migrated, fresh), 0.06);
}

TEST(Migration, CentroidErrorDetectsMismatch) {
  const auto p = profile_on(game::make_genshin(), 16);
  const auto wrong = migrate_profile(p, hw::baseline_sku(),
                                     hw::budget_sku());
  EXPECT_GT(profile_centroid_error(p, wrong), 0.05);
}

TEST(Migration, TrainedGameBundleMigrates) {
  static const game::GameSpec base = game::make_contra();
  static const game::GameSpec scaled =
      game::scale_for_platform(base, hw::flagship_sku());
  OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 12;
  TrainedGame tg = train_game(base, cfg);
  const int types_before = tg.profile().num_stage_types();
  const double base_peak_gpu = tg.profile().peak_demand.gpu();
  // A lineage with state of its own: one rotation, one online outcome.
  tg.predictor->replace_model();
  tg.predictor->record_outcome(false);
  const StagePredictor before = *tg.predictor;
  const std::shared_ptr<const GameBundle> original = before.bundle();

  TrainedGame moved = migrate_trained_game(
      std::move(tg), hw::baseline_sku(), hw::flagship_sku(), &scaled);
  EXPECT_EQ(moved.spec, &scaled);
  // One new profile and a fresh refit memo; corpus and forests shared.
  EXPECT_NE(moved.bundle().profile, original->profile);
  EXPECT_NE(moved.bundle().refits, original->refits);
  EXPECT_EQ(moved.bundle().corpus, original->corpus);
  EXPECT_EQ(moved.bundle().trained.pooled, original->trained.pooled);
  // The lineage carries over: active model and online state.
  EXPECT_EQ(moved.predictor->model_kind(), before.model_kind());
  EXPECT_EQ(moved.predictor->active().pooled, before.active().pooled);
  EXPECT_EQ(moved.predictor->online_outcomes(), before.online_outcomes());
  EXPECT_EQ(moved.predictor->online_accuracy(), before.online_accuracy());
  EXPECT_NE(moved.predictor->generation(), before.generation());
  EXPECT_EQ(moved.profile().num_stage_types(), types_before);
  // Flagship GPU is 1.9x: utilization shrinks accordingly.
  EXPECT_NEAR(moved.profile().peak_demand.gpu(), base_peak_gpu / 1.9, 1e-9);
  // The predictor still works and its redundancy now reads the migrated M.
  EXPECT_NO_THROW(moved.predictor->predict_next({}, 1, 0));
  EXPECT_NEAR(moved.predictor->redundancy().gpu(),
              (1.0 - moved.predictor->online_accuracy()) *
                  moved.profile().peak_demand.gpu(),
              1e-9);
}

TEST(Migration, RebindRejectsDifferentCatalog) {
  static const game::GameSpec base = game::make_contra();
  OfflineConfig cfg;
  cfg.profiling_runs = 6;
  cfg.corpus_runs = 12;
  TrainedGame tg = train_game(base, cfg);
  GameProfile wrong = tg.profile();
  wrong.stage_types.push_back(wrong.stage_types.back());
  auto rebound = std::make_shared<GameBundle>(tg.bundle());
  rebound->profile = std::make_shared<const GameProfile>(wrong);
  EXPECT_THROW(StagePredictor(rebound, *tg.predictor), ContractError);
  EXPECT_THROW(StagePredictor(nullptr, *tg.predictor), ContractError);
}

TEST(Migration, Preconditions) {
  const auto p = profile_on(game::make_contra(), 17);
  hw::ServerSpec bad;
  bad.gpu_perf = 0.0;
  EXPECT_THROW(migrate_profile(p, hw::baseline_sku(), bad), ContractError);
  GameProfile other = p;
  other.clusters.pop_back();
  EXPECT_THROW(profile_centroid_error(p, other), ContractError);
}

}  // namespace
}  // namespace cocg::core
