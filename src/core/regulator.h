// Regulator — peak resolution by loading-time stealing (§IV-C2).
//
// When the sessions on one capacity view together want more than the limit,
// the regulator reduces supply to sessions currently in a loading stage
// (freezing their progress and throttling their draw) instead of cutting a
// game at its peak — "users are more tolerant of appropriately extending
// the loading time compared to dropping frames at peak times". Stealing is
// bounded per session; once the pressure passes, held sessions resume.
#pragma once

#include <vector>

#include "common/resources.h"
#include "common/types.h"

namespace cocg::core {

struct RegulatorConfig {
  double capacity_limit = 0.95;
  /// Fraction of the loading draw a held session still receives.
  double held_loading_frac = 0.25;
  /// Maximum loading time stolen from one session in one loading stage
  /// (the paper's Fig. 9 stretches a loading stage by ~15 s per staggered
  /// peak; a 30 s budget covers two).
  DurationMs max_steal_ms = 30000;
};

/// Pressure report for one session on the view.
struct SessionPressure {
  SessionId sid;
  bool in_loading = false;
  ResourceVector wanted;          ///< monitor-recommended allocation
  ResourceVector loading_demand;  ///< the loading stage's own draw
  DurationMs stolen_ms = 0;       ///< already stolen in this loading stage
};

/// The regulator's verdict for one session.
struct RegulatorAction {
  SessionId sid;
  bool hold = false;           ///< freeze loading progress
  ResourceVector allocation;   ///< cap to apply
};

class Regulator {
 public:
  explicit Regulator(RegulatorConfig cfg = {}) : cfg_(cfg) {}

  /// Resolve one capacity view into `actions` (one per session, in input
  /// order; its capacity is reused). Deterministic: holds are applied to
  /// loading sessions in input order until the view fits; sessions whose
  /// steal budget is exhausted are exempt.
  void resolve(const ResourceVector& capacity,
               const std::vector<SessionPressure>& sessions,
               std::vector<RegulatorAction>& actions);

  const RegulatorConfig& config() const { return cfg_; }

 private:
  RegulatorConfig cfg_;
  std::vector<std::size_t> eligible_;  ///< resolve()'s scratch
};

}  // namespace cocg::core
