// Game distributor — Algorithm 1 (§IV-C1).
//
// Decides whether a pending game can join a server that is already running
// games. Interpretation of Algorithm 1's quantities, calibrated against the
// paper's own co-location outcomes (Fig. 9 admits Genshin+DOTA2, Fig. 11
// admits DOTA2+DMC under CoCG only, and inserts short Genshin runs between
// CSGO peaks):
//
//  * per-task forward scan (lines 10–24): each hosted session's monitor
//    yields its predicted stage sequence; we reduce it to a time-weighted
//    *expected* demand vector (stage mean demand × catalog mean duration,
//    loading stages' CPU discounted — loading is elastic, it stretches
//    rather than contends);
//  * admission (line 18's M + Consumption_Si ≤ Total): the sum of hosted
//    expected demands plus the candidate's expected demand must stay under
//    the capacity limit, and the instant of admission must not be
//    oversubscribed (hosted current-stage peaks + the candidate's opening
//    loading draw);
//  * "distinguish game length" (§IV-C2): a short game may additionally be
//    slotted in whenever the hosted sessions' *current* stages leave
//    instantaneous room for its whole peak — the gap before the next
//    predicted peak is the insertion window, residual overlap is §IV-D's
//    bounded, compensated degradation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/resources.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace cocg::core {

/// Forward view of one hosted session.
struct SessionOutlook {
  ResourceVector current_peak;  ///< current stage's peak demand
  ResourceVector expected;      ///< time-weighted expected demand (horizon)
  bool in_loading = false;
};

/// Forward view of the admission candidate.
struct CandidateOutlook {
  ResourceVector opening;   ///< initialization-loading draw
  ResourceVector peak;      ///< max predicted stage peak (with redundancy)
  ResourceVector expected;  ///< time-weighted expected demand
  bool short_game = false;
  DurationMs expected_duration_ms = 0;
};

/// Whether Distributor::decide() treats `a` and `b` alike on any view:
/// they agree on every candidate field it reads.
inline bool decides_alike(const CandidateOutlook& a,
                          const CandidateOutlook& b) {
  return a.opening == b.opening && a.peak == b.peak &&
         a.expected == b.expected && a.short_game == b.short_game;
}

/// Numbers candidate outlooks by decides_alike(): two outlooks get one id
/// exactly when they decide alike, so an id compare stands in for the
/// field compare.
class AlikeClasses {
 public:
  /// The id of an outlook that decides alike with nothing, itself included
  /// (a NaN field).
  static constexpr std::uint32_t kNoClass = UINT32_MAX;

  /// `c`'s class id: the id of an earlier outlook it decides alike with,
  /// else a new one.
  std::uint32_t id(const CandidateOutlook& c);
  /// Forget every class; ids issued before are void and are issued again.
  void clear() {
    ids_.clear();
    next_ = 0;
  }

 private:
  struct Hash {
    std::size_t operator()(const CandidateOutlook& c) const;
  };
  struct Alike {
    bool operator()(const CandidateOutlook& a,
                    const CandidateOutlook& b) const {
      return decides_alike(a, b);
    }
  };
  std::unordered_map<CandidateOutlook, std::uint32_t, Hash, Alike> ids_;
  std::uint32_t next_ = 0;
};

/// Loading stages stretch instead of contending: their CPU draw counts at
/// this factor in instantaneous checks.
inline constexpr double kLoadingCpuElasticity = 0.5;

struct DistributorConfig {
  int horizon = 4;               ///< Algorithm 1's Total.iteration
  /// Admission headroom: expected combined demand must stay under this
  /// fraction of capacity. Slightly tighter than the regulator's 95%
  /// utilization bound so residual peak interleaving stays within §IV-D's
  /// 5%-of-time degradation budget.
  double capacity_limit = 0.90;
  bool short_game_fastpath = true;  ///< §IV-C2 gap insertion
};

/// Why decide() turned a view down.
enum class RejectReason : std::uint8_t {
  kCandidateExceedsCapacity,
  kCurrentExceedsLimit,
  kExpectedExceedsLimit,
};
inline constexpr std::size_t kNumRejectReasons = 3;
/// Views rejected per RejectReason (indexed by it) during one scan.
using RejectCounts = std::array<std::uint32_t, kNumRejectReasons>;

struct AdmitDecision {
  bool admit = false;
  std::string_view reason;  ///< one of decide()'s static literals
  RejectReason rejected{};  ///< meaningful only when !admit
};

class Distributor {
 public:
  explicit Distributor(DistributorConfig cfg = {});

  /// One capacity view (a single GPU's view of a server).
  AdmitDecision decide(const ResourceVector& capacity,
                       std::span<const SessionOutlook> hosted,
                       const CandidateOutlook& candidate) const;

  /// Add `counts` to the distributor.reject.* counters, as the scan that
  /// rejected that many views per reason did.
  void replay_rejects(const RejectCounts& counts) const;

  const DistributorConfig& config() const { return cfg_; }

 private:
  /// Count a rejection for `why` and return it.
  AdmitDecision reject(RejectReason why, std::string_view reason) const;

  DistributorConfig cfg_;
  // Per-verdict counters for Algorithm 1's capacity check (one per fixed
  // reason string; incremented per view examined).
  obs::Counter obs_admit_empty_;
  obs::Counter obs_admit_short_;
  obs::Counter obs_admit_fit_;
  std::array<obs::Counter, kNumRejectReasons> obs_reject_;  ///< by reason
};

}  // namespace cocg::core
