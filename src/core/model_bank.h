// ModelBank: the train-once / share-everywhere registry (§IV-B1).
//
// The bank keys GameBundles (core/stage_predictor.h) by game name and
// hands each holder — a session, a scheduler, a fleet shard — a
// TrainedGame over them:
//
//   * the bundle is SHARED, never copied: its profile, training corpus,
//     compiled forests and refit memo are the bank's own objects in every
//     instantiation, so K fleet shards hold one copy of each instead of K;
//   * what belongs to one holder is its StagePredictor lineage alone: the
//     active model kind and forests a replace_model adopted, the generation
//     and the online accuracy EMA;
//   * the refit memo is internally locked, so a model replacement's seeded
//     rotation fit is made once per (game, kind) per bank, not per shard:
//     every later replacement to that kind is a pointer swap.
//
// Lifetime rules: every TrainedGame holds its bundle by shared_ptr, so it
// stays valid after the bank is destroyed. The bank is immutable after
// loading; concurrent instantiate() calls and replacements from fleet
// shard threads are safe.
//
// On disk a bundle is one versioned, human-diffable `.cocgm` text file:
// the bundle header, the profile block and the predictor block. There is
// one writer and one reader of each; the reader checks the predictor block
// against the profile read just before it, naming the offending line.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/offline.h"

namespace cocg::core {

/// Serialize one bundle. Throws std::runtime_error on failure.
void write_bundle(const GameBundle& bundle, std::ostream& os);
void save_bundle_file(const GameBundle& bundle, const std::string& path);

/// Deserialize, with a fresh refit memo. Throws std::runtime_error with a
/// line/field diagnostic on truncated, corrupt or version-skewed input, and
/// on a predictor block its profile cannot host: a forest of another kind
/// than the `model` line, wider than the encoder or predicting stage types
/// beyond the catalog, or a corpus with no training pair.
GameBundle read_bundle(std::istream& is);
GameBundle load_bundle_file(const std::string& path);

class ModelBank {
 public:
  /// Register a bundle under its game name, replacing any previous one.
  void add(std::shared_ptr<const GameBundle> bundle);
  /// Register the bundle `tg` runs over, shared with it.
  void add_trained(const TrainedGame& tg);

  bool has(const std::string& game) const;
  std::size_t size() const { return bundles_.size(); }
  std::vector<std::string> games() const;
  /// Throws std::runtime_error when the game is unknown.
  const GameBundle& bundle(const std::string& game) const;

  /// A TrainedGame for one session/shard: a fresh predictor lineage over
  /// the bank's bundle. `spec` must outlive the result (it is stored by
  /// pointer, exactly as train_game does).
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
  /// directory is missing or any bundle fails to load.
  static ModelBank load_dir(const std::string& dir);

 private:
  const std::shared_ptr<const GameBundle>& find(
      const std::string& game) const;

  std::map<std::string, std::shared_ptr<const GameBundle>> bundles_;
};

}  // namespace cocg::core
