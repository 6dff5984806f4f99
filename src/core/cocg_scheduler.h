// CocgScheduler — the paper's complete system (Fig. 3) as a pluggable
// platform::Scheduler.
//
//  * admission — Distributor (Algorithm 1) over per-GPU capacity views,
//    fed by the hosted sessions' monitors and the candidate's predictor;
//  * 5-second control loop — per-session OnlineMonitor updates (Fig. 8),
//    allocation = stage peak + redundancy (Eq. 1), Regulator stealing
//    loading time when a view is over the limit;
//  * replacing-model fallback — persistent prediction errors rotate the
//    game's model DTC → RF → GBDT (§IV-B2).
//
// Admission memos: work in the admission pass is proportional to what
// changed since it last ran. An epoch runs from one change to what
// admit() reads (session start, session end or control()) to the next.
//  * A hosted session's outlook is kept with the monitor version() and
//    predictor generation() it was computed from, and reused while both
//    are unchanged.
//  * A candidate key (trained game, player, script) keeps its outlook in a
//    hashed memo until its game's next model replacement (an admitted
//    key's entry is erased). Each entry carries the id of its
//    decides_alike() class (AlikeClasses).
//  * A rejection is kept with its class id for the rest of the epoch:
//    every later candidate of that class meets the same verdict from every
//    view, so it is replayed without a view scan.
//  * The epoch's first view scan records each admissible GPU view's
//    server, GPU, capacity and hosted outlooks; every later scan in the
//    epoch runs the distributor over those summaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/distributor.h"
#include "core/offline.h"
#include "core/online_monitor.h"
#include "core/regulator.h"
#include "obs/obs.h"
#include "platform/scheduler.h"

namespace cocg::core {

struct CocgConfig {
  DistributorConfig distributor;
  RegulatorConfig regulator;
  MonitorConfig monitor;
  /// Consecutive prediction errors before the game's model is replaced.
  int replace_model_after = 5;
  /// Telemetry samples aggregated per detection (the paper's 5 s at 1 Hz).
  /// In [1, telemetry::SampleWindow::kCapacity].
  std::size_t detection_window = 5;
};

class CocgScheduler final : public platform::Scheduler {
 public:
  /// `models`: one TrainedGame per game name (train_suite output).
  CocgScheduler(std::map<std::string, TrainedGame> models,
                CocgConfig cfg = {});

  std::string name() const override { return "CoCG"; }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override;

  void control(platform::PlatformView& view) override;

  void on_session_start(platform::PlatformView& view, SessionId sid) override;
  void on_session_end(platform::PlatformView& view, SessionId sid) override;

  /// Introspection for tests/benches.
  const TrainedGame& model(const std::string& game) const;
  int model_replacements() const { return model_replacements_; }
  int total_callbacks() const;

 private:
  struct SessionState {
    const TrainedGame* model = nullptr;  ///< a node of models_; never moves
    std::unique_ptr<OnlineMonitor> monitor;
    std::string game;
    std::uint64_t player_id = 0;
    std::size_t script_idx = 0;
    ServerId server;  ///< the placement, fixed for the session's life
    int gpu = 0;
    std::size_t samples_consumed = 0;
    DurationMs stolen_ms = 0;
    bool held = false;
    int outcomes_reported = 0;  ///< hits+misses already fed to the predictor
    /// Memo of outlook_for(*this), valid while the monitor's version and
    /// the predictor's generation equal the ones it was computed at.
    std::optional<SessionOutlook> outlook;
    std::uint64_t outlook_version = 0;
    std::uint64_t outlook_generation = 0;
  };
  /// Candidate memo key.
  struct CandidateKey {
    const TrainedGame* game = nullptr;  ///< a node of models_
    std::uint64_t player_id = 0;
    std::size_t script_idx = 0;
    bool operator==(const CandidateKey&) const = default;
  };
  struct CandidateKeyHash {
    std::size_t operator()(const CandidateKey& k) const;
  };
  struct CandidateEntry {
    CandidateOutlook outlook;
    std::uint32_t class_id = AlikeClasses::kNoClass;
  };
  /// A class the view scan rejected in the current epoch, with the scan's
  /// verdict: its final reason and the views it rejected per reason.
  struct Rejection {
    std::uint32_t class_id = AlikeClasses::kNoClass;
    std::string_view reason;  ///< a static literal
    RejectCounts views{};
  };
  /// One admissible GPU view as the epoch's first scan found it.
  struct ViewSummary {
    ServerId server;
    int gpu = 0;
    ResourceVector capacity;  ///< view_capacity()
    /// Its hosted outlooks, by session id: [first, last) of
    /// summary_outlooks_.
    std::size_t first = 0, last = 0;
  };

  /// Capacity of one GPU view with the CPU/RAM pools reduced by sessions
  /// pinned to the server's other GPUs.
  ResourceVector view_capacity(const platform::PlatformView& view,
                               ServerId server, int gpu) const;
  SessionOutlook outlook_for(const SessionState& st) const;
  const SessionOutlook& hosted_outlook(SessionState& st);
  CandidateOutlook candidate_outlook(const TrainedGame& tg,
                                     std::uint64_t player_id,
                                     std::size_t script_idx) const;
  const CandidateEntry& memo_candidate(const CandidateKey& key);
  /// This epoch's view summaries, built by the first call in the epoch.
  const std::vector<ViewSummary>& view_summaries(
      const platform::PlatformView& view);
  void update_monitor(platform::PlatformView& view, SessionId sid,
                      SessionState& st, bool view_saturated);
  /// Start a new placement epoch: forget this epoch's rejections and view
  /// summaries.
  void new_epoch() {
    rejections_.clear();
    summaries_valid_ = false;
  }

  std::map<std::string, TrainedGame> models_;
  CocgConfig cfg_;
  Distributor distributor_;
  Regulator regulator_;
  std::map<SessionId, SessionState> state_;
  std::unordered_map<CandidateKey, CandidateEntry, CandidateKeyHash>
      candidate_memo_;
  AlikeClasses classes_;  ///< numbers candidate_memo_'s outlooks
  std::vector<Rejection> rejections_;  ///< this epoch's; a few entries
  std::vector<ViewSummary> summaries_;  ///< this epoch's when valid
  std::vector<SessionOutlook> summary_outlooks_;
  bool summaries_valid_ = false;
  // control()'s scratch, reused across passes: one saturation flag per
  // GPU view (server id × the most GPUs on a server + GPU) and one view's
  // regulator inputs, states and verdicts.
  std::vector<std::uint8_t> saturated_;
  std::vector<SessionPressure> pressures_;
  std::vector<SessionState*> pressured_;
  std::vector<RegulatorAction> actions_;
  int model_replacements_ = 0;

  // Decision-level observability (the per-view verdicts live in the
  // Distributor; these count whole admit() calls).
  obs::Counter obs_accepted_;
  obs::Counter obs_rejected_;
  obs::Counter obs_holds_;
  obs::Counter obs_replacements_;
  obs::Counter obs_outlook_hits_;
  obs::Counter obs_outlook_misses_;
  obs::Counter obs_candidate_hits_;
  obs::Counter obs_candidate_misses_;
  obs::Counter obs_reject_hits_;
  obs::Counter obs_reject_misses_;
  obs::Counter obs_view_cache_hits_;
  obs::Counter obs_view_cache_misses_;
  // Stage-profiler scopes for the three decision stages of the pipeline:
  // predictor (candidate outlook + monitor collect/judge/predict),
  // distributor (Algorithm 1 view scan), regulator (loading-steal pass).
  obs::StageTimer prof_predictor_;
  obs::StageTimer prof_distributor_;
  obs::StageTimer prof_regulator_;
};

}  // namespace cocg::core
