// Offline per-game pipeline: lab runs → profile → trained predictor.
//
// "Contention feature profiling and model training only need to be
// performed once" (§IV-B1). train_game builds one immutable GameBundle per
// title; a TrainedGame is one holder's predictor lineage over it, and the
// CocgScheduler takes one per game.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/frame_profiler.h"
#include "core/game_profile.h"
#include "core/stage_predictor.h"
#include "game/spec.h"

namespace cocg::core {

struct OfflineConfig {
  int profiling_runs = 16;  ///< lab runs used for clustering + segmentation
  int corpus_runs = 96;     ///< additional runs for predictor training
  int players = 12;         ///< simulated player pool
  ProfilerConfig profiler;
  /// The paper picks each game's K by reading the Fig. 14 inflection point
  /// (§V-D1); with operator_k the pipeline does the same, using the game's
  /// designed cluster count. Set false to rely on the automatic elbow.
  bool operator_k = true;
  ml::ModelKind model = ml::ModelKind::kDtc;
  EncoderConfig encoder;
  double train_fraction = 0.75;
  std::uint64_t seed = 1;
};

struct TrainedGame {
  const game::GameSpec* spec = nullptr;
  /// This game's own lineage over its shared bundle. Heap-held so the
  /// online monitors' pointers to it survive moves.
  std::unique_ptr<StagePredictor> predictor;

  const GameBundle& bundle() const { return *predictor->bundle(); }
  const GameProfile& profile() const { return *bundle().profile; }
};

/// Run the full offline pipeline for one game.
TrainedGame train_game(const game::GameSpec& spec, const OfflineConfig& cfg);

/// Train every game in a suite; keyed by game name. `spec` pointers refer
/// into `suite`, which must outlive the result.
std::map<std::string, TrainedGame> train_suite(
    const std::vector<game::GameSpec>& suite, const OfflineConfig& cfg);

}  // namespace cocg::core
