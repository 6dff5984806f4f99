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
// changed since it last ran.
//  * A hosted session's outlook is kept with the monitor version() and
//    predictor generation() it was computed from, and reused while both
//    are unchanged.
//  * A candidate key's outlook is kept until its game's next model
//    replacement (an admitted key's entry is erased).
//  * A rejection is replayed, without a view scan, for every equal
//    candidate until the shard's placements may have changed: session
//    start, session end or control().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
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
  /// A candidate the view scan rejected in the current epoch, with the
  /// scan's verdict: its final reason and the views it rejected per reason.
  struct Rejection {
    CandidateOutlook candidate;
    std::string_view reason;  ///< a static literal
    RejectCounts views{};
  };
  /// Candidate memo key: (game, player_id, script_idx). The game name
  /// views the models_ key, which lives as long as the scheduler.
  using CandidateKey =
      std::tuple<std::string_view, std::uint64_t, std::size_t>;

  /// Capacity of one GPU view with the CPU/RAM pools reduced by sessions
  /// pinned to the server's other GPUs.
  ResourceVector view_capacity(const platform::PlatformView& view,
                               ServerId server, int gpu) const;
  SessionOutlook outlook_for(const SessionState& st) const;
  const SessionOutlook& hosted_outlook(SessionState& st);
  CandidateOutlook candidate_outlook(const TrainedGame& tg,
                                     std::uint64_t player_id,
                                     std::size_t script_idx) const;
  const CandidateOutlook& memo_candidate_outlook(const TrainedGame& tg,
                                                 const CandidateKey& key);
  void update_monitor(platform::PlatformView& view, SessionId sid,
                      SessionState& st, bool view_saturated);
  /// Start a new placement epoch: forget this epoch's rejections.
  void new_epoch() { rejections_.clear(); }

  std::map<std::string, TrainedGame> models_;
  CocgConfig cfg_;
  Distributor distributor_;
  Regulator regulator_;
  std::map<SessionId, SessionState> state_;
  std::map<CandidateKey, CandidateOutlook> candidate_memo_;
  std::vector<Rejection> rejections_;  ///< this epoch's; a few entries
  std::vector<SessionOutlook> hosted_scratch_;  ///< one view's outlooks
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
  // Stage-profiler scopes for the three decision stages of the pipeline:
  // predictor (candidate outlook + monitor collect/judge/predict),
  // distributor (Algorithm 1 view scan), regulator (loading-steal pass).
  obs::StageTimer prof_predictor_;
  obs::StageTimer prof_distributor_;
  obs::StageTimer prof_regulator_;
};

}  // namespace cocg::core
