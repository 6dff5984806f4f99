// Baseline schedulers from §V-A / Fig. 11.
//
//  * VbpScheduler — Vector Bin Packing: reserves 90% of a game's peak for
//    its whole lifetime; admits only when the reservation fits in the
//    remaining capacity. Never reallocates.
//  * GaugurScheduler — GAugur-style [HPDC'19]: offline pairwise profiling
//    decides whether two games may share a server, then each admitted game
//    gets a FIXED resource limit. The paper's GAugur learns the limit with
//    ML over profiling runs; we compute the equivalent profiling statistic
//    directly (execution-demand mean + configurable share of the
//    peak-to-mean gap), which preserves its observable behaviour: static
//    limits that squeeze peak stages (low FPS ratio, Fig. 13) and
//    peak-sum admission that refuses heavy pairs (Fig. 11).
//  * ImprovedScheduler — the paper's second comparison scheme: stage-aware
//    but purely reactive. Tracks observed usage and reallocates to the
//    recent observation plus headroom; no prediction, so every stage rise
//    is served late.
#pragma once

#include <map>
#include <string>

#include "core/offline.h"
#include "platform/scheduler.h"

namespace cocg::core {

struct VbpConfig {
  double reserve_fraction = 0.90;  ///< of peak demand
};

class VbpScheduler final : public platform::Scheduler {
 public:
  VbpScheduler(std::map<std::string, TrainedGame> models, VbpConfig cfg = {});

  std::string name() const override { return "VBP"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override;

 private:
  std::map<std::string, TrainedGame> models_;
  VbpConfig cfg_;
};

struct GaugurConfig {
  /// Fixed limit = mean execution demand + gap_share × (peak − mean).
  /// 0.7 reproduces GAugur's published behaviour: heavy pairs (DOTA2+DMC,
  /// CSGO+Genshin) exceed one GPU and are refused; light pairs co-locate
  /// but peak stages overrun the fixed limit and drop frames (Fig. 13).
  double gap_share = 0.7;
  double capacity_limit = 1.0;
};

class GaugurScheduler final : public platform::Scheduler {
 public:
  GaugurScheduler(std::map<std::string, TrainedGame> models,
                  GaugurConfig cfg = {});

  std::string name() const override { return "GAugur"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override;

  /// The fixed per-game limit GAugur assigns (exposed for tests).
  ResourceVector fixed_limit(const std::string& game) const;

 private:
  std::map<std::string, TrainedGame> models_;
  GaugurConfig cfg_;
};

struct ImprovedConfig {
  double headroom = 1.15;          ///< margin over observed usage
  /// Samples averaged per reaction, in [1, SampleWindow::kCapacity].
  std::size_t window = 5;
  double capacity_limit = 0.95;
};

class ImprovedScheduler final : public platform::Scheduler {
 public:
  ImprovedScheduler(std::map<std::string, TrainedGame> models,
                    ImprovedConfig cfg = {});

  std::string name() const override { return "Improved"; }
  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override;
  void control(platform::PlatformView& view) override;

 private:
  std::map<std::string, TrainedGame> models_;
  ImprovedConfig cfg_;
};

}  // namespace cocg::core
