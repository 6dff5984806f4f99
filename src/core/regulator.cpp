#include "core/regulator.h"

#include "common/check.h"
#include "schedcheck/session.h"

namespace cocg::core {

void Regulator::resolve(const ResourceVector& capacity,
                        const std::vector<SessionPressure>& sessions,
                        std::vector<RegulatorAction>& actions) {
  const ResourceVector limit = capacity * cfg_.capacity_limit;

  actions.clear();
  ResourceVector total;
  for (const auto& s : sessions) {
    actions.push_back(RegulatorAction{s.sid, false, s.wanted});
    total += s.wanted;
  }
  if (total.fits_within(limit) && !schedcheck::active()) {
    return;  // no pressure: release all
  }

  // Steal from loading sessions until the view fits. The natural order is
  // input order (deterministic: ascending sid); under schedcheck the
  // victim pick and each hold are schedule points, so replay can reorder
  // victims or hold sessions the natural run would have released —
  // "delayed regulator holds" in the fuzzer's mutation menu.
  eligible_.clear();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& s = sessions[i];
    if (!s.in_loading) continue;
    if (s.stolen_ms >= cfg_.max_steal_ms) continue;  // budget exhausted
    eligible_.push_back(i);
  }
  bool over = !total.fits_within(limit);
  while (!eligible_.empty()) {
    std::size_t pick = 0;
    if (eligible_.size() > 1) {
      pick = static_cast<std::size_t>(schedcheck::decide(
          schedcheck::Point::kRegulatorVictim,
          static_cast<int>(eligible_.size()), 0));
    }
    const std::size_t i = eligible_[pick];
    eligible_.erase(eligible_.begin() + static_cast<std::ptrdiff_t>(pick));
    const int hold =
        schedcheck::decide(schedcheck::Point::kRegulatorHold, 2, over ? 1 : 0);
    if (hold == 0) {
      if (!over) break;  // natural run: fits again, release the rest
      continue;          // forced release: move to the next victim
    }
    const ResourceVector throttled =
        sessions[i].loading_demand * cfg_.held_loading_frac;
    total -= actions[i].allocation;
    total += throttled;
    actions[i].hold = true;
    actions[i].allocation = throttled;
    over = !total.fits_within(limit);
    if (!over && !schedcheck::active()) return;
  }
  // Still over: nothing more the regulator may legally steal; contention
  // resolution will squeeze proportionally (§IV-D's bounded degradation).
}

}  // namespace cocg::core
