#include "core/distributor.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace cocg::core {

std::size_t AlikeClasses::Hash::operator()(const CandidateOutlook& c) const {
  // Over exactly the fields decides_alike() reads; -0.0 and 0.0 compare
  // equal there, so they hash alike here.
  std::uint64_t h = c.short_game ? 1 : 0;
  for (const ResourceVector* v : {&c.opening, &c.peak, &c.expected}) {
    for (std::size_t d = 0; d < kNumDims; ++d) {
      const double x = v->at(d) == 0.0 ? 0.0 : v->at(d);
      h = (h ^ std::bit_cast<std::uint64_t>(x)) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
    }
  }
  return static_cast<std::size_t>(h);
}

std::uint32_t AlikeClasses::id(const CandidateOutlook& c) {
  if (!decides_alike(c, c)) return kNoClass;
  const auto [it, added] = ids_.try_emplace(c, next_);
  if (added) ++next_;
  return it->second;
}

Distributor::Distributor(DistributorConfig cfg) : cfg_(cfg) {
  auto& reg = obs::metrics();
  obs_admit_empty_ = reg.counter("distributor.admit.empty_server");
  obs_admit_short_ = reg.counter("distributor.admit.short_game_gap");
  obs_admit_fit_ = reg.counter("distributor.admit.complementary_fit");
  obs_reject_ = {
      reg.counter("distributor.reject.candidate_exceeds_capacity"),
      reg.counter("distributor.reject.current_exceeds_limit"),
      reg.counter("distributor.reject.expected_exceeds_limit")};
}

AdmitDecision Distributor::reject(RejectReason why,
                                  std::string_view reason) const {
  obs_reject_[static_cast<std::size_t>(why)].add();
  return {false, reason, why};
}

void Distributor::replay_rejects(const RejectCounts& counts) const {
  for (std::size_t i = 0; i < kNumRejectReasons; ++i) {
    obs_reject_[i].add(counts[i]);
  }
}

AdmitDecision Distributor::decide(
    const ResourceVector& capacity, std::span<const SessionOutlook> hosted,
    const CandidateOutlook& candidate) const {
  COCG_EXPECTS(cfg_.horizon >= 1);
  const ResourceVector limit = capacity * cfg_.capacity_limit;

  // Empty server: admissible when the candidate alone fits outright.
  if (hosted.empty()) {
    if (candidate.peak.fits_within(capacity)) {
      obs_admit_empty_.add();
      return {true, "empty server"};
    }
    return reject(RejectReason::kCandidateExceedsCapacity,
                  "candidate alone exceeds capacity");
  }

  // Instantaneous feasibility at the moment of admission: hosted sessions
  // at their current-stage peaks plus the candidate's opening loading draw.
  // Loading CPU is elastic (it stretches), so it is discounted.
  // The hosted current-peak sum feeds both the instantaneous check and the
  // short-game fastpath; accumulate both totals in one pass so the
  // discounted peaks are computed once per hosted session.
  ResourceVector opening = candidate.opening;
  opening[Dim::kCpuPct] *= kLoadingCpuElasticity;
  ResourceVector now_total = opening;
  ResourceVector with_peak = candidate.peak;
  for (const auto& h : hosted) {
    ResourceVector cur = h.current_peak;
    if (h.in_loading) cur[Dim::kCpuPct] *= kLoadingCpuElasticity;
    now_total += cur;
    with_peak += cur;
  }
  const bool now_ok = now_total.fits_within(limit);

  // §IV-C2 "distinguish game length": a short game slots into the gap when
  // the hosted sessions' current stages leave instantaneous room for its
  // whole peak — by prediction, the next hosted peak is at least one stage
  // transition away.
  if (cfg_.short_game_fastpath && candidate.short_game &&
      with_peak.fits_within(limit)) {
    obs_admit_short_.add();
    return {true, "short-game gap insertion"};
  }

  if (!now_ok) {
    return reject(RejectReason::kCurrentExceedsLimit,
                  "current combined consumption exceeds limit");
  }

  // Algorithm 1's forward scan, reduced: combined time-weighted expected
  // demand over the prediction horizon must stay under the limit. Peaks
  // that interleave above it are the regulator's job; sustained expected
  // oversubscription is not admissible.
  ResourceVector expected_total = candidate.expected;
  for (const auto& h : hosted) expected_total += h.expected;
  if (!expected_total.fits_within(limit)) {
    return reject(RejectReason::kExpectedExceedsLimit,
                  "expected combined consumption exceeds limit");
  }
  obs_admit_fit_.add();
  return {true, "complementary fit"};
}

}  // namespace cocg::core
