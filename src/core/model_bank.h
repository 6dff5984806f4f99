// ModelBank: the train-once / share-everywhere registry (§IV-B1).
//
// A GameBundle is one game's complete offline output — profile, compiled
// predictor artifact, and the summary stats the schedulers read — in an
// immutable, serializable form. The ModelBank keys bundles by game name
// and materializes per-session TrainedGame instances from them:
//
//   * the compiled forests are SHARED (aliased shared_ptr, read-only), so
//     K fleet shards hold one copy of every model instead of K;
//   * the profile is DEEP-COPIED per instantiation (it is small, and the
//     per-shard copy keeps any future profile mutation from leaking
//     across shards);
//   * the training corpus rides along, so a restored predictor's
//     replace_model retrains exactly like the original's;
//   * the refit memo is SHARED too, so a model replacement's seeded
//     rotation fit is made once per (game, kind) per bank, not per shard:
//     every later replacement to that kind is a pointer swap.
//
// Lifetime rules: a bundle handed out by the bank stays valid as long as
// any instantiated TrainedGame holds its forests — the shared_ptrs keep
// the arrays alive even if the bank itself is destroyed. The bank is
// immutable after loading (the refit memo is internally locked);
// concurrent instantiate() calls and replacements from fleet shard threads
// are safe.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/offline.h"

namespace cocg::core {

/// One game's immutable trained artifacts.
struct GameBundle {
  std::shared_ptr<const GameProfile> profile;
  PredictorArtifact predictor;
  std::vector<double> sse_by_k;  ///< Fig. 14 curve from profiling
  int chosen_k = 0;
  DurationMs mean_run_duration_ms = 0;

  const std::string& game_name() const { return profile->game_name; }
};

/// Serialize one bundle (versioned, human-diffable; embeds the profile
/// and predictor blocks). Throws std::runtime_error on failure.
void write_bundle(const GameBundle& bundle, std::ostream& os);
void save_bundle_file(const GameBundle& bundle, const std::string& path);

/// Deserialize. Throws std::runtime_error with a line/field diagnostic on
/// truncated, corrupt, or version-skewed input.
GameBundle read_bundle(std::istream& is);
GameBundle load_bundle_file(const std::string& path);

class ModelBank {
 public:
  /// Snapshot a TrainedGame as an immutable bundle (models shared, not
  /// copied; profile copied).
  static GameBundle bundle_from(const TrainedGame& tg);

  /// Register a bundle under its game name, replacing any previous one.
  /// A bundle without a refit memo gets a fresh one.
  void add(GameBundle bundle);
  void add_trained(const TrainedGame& tg);

  bool has(const std::string& game) const;
  std::size_t size() const { return bundles_.size(); }
  std::vector<std::string> games() const;
  /// Throws std::runtime_error when the game is unknown.
  const GameBundle& bundle(const std::string& game) const;

  /// Materialize a TrainedGame for one session/shard: profile deep-copied,
  /// predictor restored against that copy, forests shared with the bank.
  /// `spec` must outlive the result (it is stored by pointer, exactly as
  /// train_game does).
  TrainedGame instantiate(const std::string& game,
                          const game::GameSpec* spec) const;

  /// instantiate() for every suite entry; throws std::runtime_error
  /// naming the first game missing from the bank. `suite` must outlive
  /// the result.
  std::map<std::string, TrainedGame> instantiate_suite(
      const std::vector<game::GameSpec>& suite) const;

  /// Write one `<sanitized-game-name>.cocgm` file per bundle into `dir`
  /// (created if needed); returns the paths written.
  std::vector<std::string> save_dir(const std::string& dir) const;
  /// Load every *.cocgm file in `dir`. Throws std::runtime_error when the
  /// directory is missing or any bundle fails to parse.
  static ModelBank load_dir(const std::string& dir);

 private:
  std::map<std::string, GameBundle> bundles_;
};

}  // namespace cocg::core
