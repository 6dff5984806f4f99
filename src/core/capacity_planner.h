// Capacity planning on top of CoCG's profiles.
//
// An operator question the paper's model answers directly: given the
// profiled games and a server SKU, which mixes can one GPU view host under
// the distributor's expected-demand rule, and how many concurrent sessions
// of a mix fit? The planner enumerates admissible multisets of titles —
// the offline counterpart of Algorithm 1, useful for fleet sizing before
// any game is launched.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/game_profile.h"
#include "core/offline.h"
#include "hw/server.h"

namespace cocg::core {

inline constexpr int kMaxSessionsPerView = 6;  ///< enumeration bound

struct PlannerConfig {
  double capacity_limit = 0.90;  ///< the distributor's admission headroom
};

/// One admissible mix on a single GPU view.
struct MixPlan {
  std::vector<std::string> games;  ///< sorted title names (with repeats)
  ResourceVector expected_total;   ///< combined time-weighted demand
  double headroom = 0.0;           ///< min over dims of 1 − expected/cap
};

class CapacityPlanner {
 public:
  /// `models` must outlive the planner.
  CapacityPlanner(const std::map<std::string, TrainedGame>* models,
                  PlannerConfig cfg = {});

  /// Expected (time-weighted) demand of one title, per its profile:
  /// stage mean demands weighted by catalog mean durations.
  ResourceVector expected_demand(const std::string& game) const;

  /// Can this multiset of titles share one GPU view of `sku`?
  bool mix_fits(const std::vector<std::string>& games,
                const hw::ServerSpec& sku) const;

  /// Maximum count of one title per view.
  int max_concurrent(const std::string& game,
                     const hw::ServerSpec& sku) const;

  /// All maximal admissible mixes (no further title can be added) on one
  /// view, sorted by descending headroom. Exponential in principle;
  /// bounded by kMaxSessionsPerView and the suite size.
  std::vector<MixPlan> maximal_mixes(const hw::ServerSpec& sku) const;

 private:
  ResourceVector combined(const std::vector<std::string>& games) const;

  const std::map<std::string, TrainedGame>* models_;
  PlannerConfig cfg_;
};

}  // namespace cocg::core
