#include "core/offline.h"

#include "common/check.h"
#include "game/tracegen.h"

namespace cocg::core {

TrainedGame train_game(const game::GameSpec& spec, const OfflineConfig& cfg) {
  COCG_EXPECTS(cfg.profiling_runs >= 1);
  COCG_EXPECTS(cfg.corpus_runs >= 0);
  COCG_EXPECTS(cfg.players >= 1);
  Rng rng(cfg.seed ^ spec.id.value);

  // 1. Laboratory profiling runs, streamed into their frame means.
  std::vector<std::vector<ResourceVector>> runs;
  std::vector<std::uint64_t> run_players;
  std::vector<std::size_t> run_scripts;
  runs.reserve(static_cast<std::size_t>(cfg.profiling_runs));
  DurationMs dur_sum = 0;
  for (int r = 0; r < cfg.profiling_runs; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    const auto player =
        static_cast<std::uint64_t>(rng.uniform_int(1, cfg.players));
    auto run =
        game::profile_run_frame_means(spec, script, player, rng.next_u64());
    dur_sum += run.last_sample_ms;
    runs.push_back(std::move(run.means));
    run_players.push_back(player);
    run_scripts.push_back(script);
  }
  const DurationMs mean_run_duration_ms =
      dur_sum / static_cast<DurationMs>(runs.size());

  // 2. Cluster + segment + catalog.
  ProfilerConfig prof_cfg = cfg.profiler;
  if (cfg.operator_k && prof_cfg.forced_k == 0) {
    prof_cfg.forced_k = spec.num_clusters();
  }
  FrameProfiler profiler(prof_cfg);
  auto prof_out = profiler.profile(spec.name, runs, rng);
  auto profile =
      std::make_shared<const GameProfile>(std::move(prof_out.profile));

  // 3. Predictor corpus: the profiling runs' sequences plus bulk runs
  //    re-segmented against the fixed profile.
  std::vector<TrainingRun> corpus;
  for (std::size_t t = 0; t < prof_out.stage_sequences.size(); ++t) {
    corpus.push_back(TrainingRun{prof_out.stage_sequences[t],
                                 run_players[t], run_scripts[t]});
  }
  for (int r = 0; r < cfg.corpus_runs; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    const auto player =
        static_cast<std::uint64_t>(rng.uniform_int(1, cfg.players));
    const auto run =
        game::profile_run_frame_means(spec, script, player, rng.next_u64());
    corpus.push_back(TrainingRun{infer_stage_sequence(*profile, run.means),
                                 player, script});
  }

  // 4. Train the stage predictor with category-aware sample selection.
  PredictorConfig pcfg;
  pcfg.model = cfg.model;
  pcfg.encoder = cfg.encoder;
  pcfg.train_fraction = cfg.train_fraction;
  pcfg.category = spec.category;
  GameBundle bundle =
      train_predictor(std::move(profile), pcfg, std::move(corpus), rng);
  bundle.sse_by_k = std::move(prof_out.sse_by_k);
  bundle.chosen_k = prof_out.chosen_k;
  bundle.mean_run_duration_ms = mean_run_duration_ms;
  TrainedGame out;
  out.spec = &spec;
  out.predictor = std::make_unique<StagePredictor>(
      std::make_shared<const GameBundle>(std::move(bundle)));
  return out;
}

std::map<std::string, TrainedGame> train_suite(
    const std::vector<game::GameSpec>& suite, const OfflineConfig& cfg) {
  std::map<std::string, TrainedGame> out;
  for (const auto& spec : suite) {
    out.emplace(spec.name, train_game(spec, cfg));
  }
  return out;
}

}  // namespace cocg::core
