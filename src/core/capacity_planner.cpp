#include "core/capacity_planner.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace cocg::core {

CapacityPlanner::CapacityPlanner(
    const std::map<std::string, TrainedGame>* models, PlannerConfig cfg)
    : models_(models), cfg_(cfg) {
  COCG_EXPECTS(models != nullptr);
  COCG_EXPECTS_MSG(!models->empty(), "planner needs at least one profile");
  COCG_EXPECTS(cfg.capacity_limit > 0.0);
}

ResourceVector CapacityPlanner::expected_demand(
    const std::string& game) const {
  auto it = models_->find(game);
  COCG_EXPECTS_MSG(it != models_->end(), "no profile for " + game);
  const GameProfile& p = it->second.profile();
  ResourceVector weighted;
  double total_ms = 0.0;
  for (const auto& st : p.stage_types) {
    const double w =
        static_cast<double>(std::max<DurationMs>(st.mean_duration_ms, 1000)) *
        static_cast<double>(std::max<std::size_t>(st.occurrences, 1));
    weighted += st.mean_demand * w;
    total_ms += w;
  }
  if (total_ms <= 0.0) return p.peak_demand;
  return weighted * (1.0 / total_ms);
}

ResourceVector CapacityPlanner::combined(
    const std::vector<std::string>& games) const {
  ResourceVector total;
  for (const auto& g : games) total += expected_demand(g);
  return total;
}

bool CapacityPlanner::mix_fits(const std::vector<std::string>& games,
                               const hw::ServerSpec& sku) const {
  if (games.empty()) return true;
  if (static_cast<int>(games.size()) > kMaxSessionsPerView) {
    return false;
  }
  const ResourceVector limit =
      sku.per_gpu_capacity() * cfg_.capacity_limit;
  return combined(games).fits_within(limit);
}

int CapacityPlanner::max_concurrent(const std::string& game,
                                    const hw::ServerSpec& sku) const {
  std::vector<std::string> mix;
  for (int n = 1; n <= kMaxSessionsPerView; ++n) {
    mix.push_back(game);
    if (!mix_fits(mix, sku)) return n - 1;
  }
  return kMaxSessionsPerView;
}

std::vector<MixPlan> CapacityPlanner::maximal_mixes(
    const hw::ServerSpec& sku) const {
  std::vector<std::string> titles;
  for (const auto& [name, tg] : *models_) titles.push_back(name);

  // Depth-first enumeration of admissible multisets (non-decreasing title
  // index prevents permutation duplicates).
  std::vector<MixPlan> out;
  std::vector<std::string> cur;
  const ResourceVector cap = sku.per_gpu_capacity();

  std::function<void(std::size_t)> walk = [&](std::size_t from) {
    // Recurse over extensions with non-decreasing title index (avoids
    // permutation duplicates); maximality is judged against ALL titles.
    for (std::size_t i = from; i < titles.size(); ++i) {
      cur.push_back(titles[i]);
      if (mix_fits(cur, sku)) walk(i);
      cur.pop_back();
    }
    bool maximal = !cur.empty();
    for (const auto& t : titles) {
      cur.push_back(t);
      const bool fits = mix_fits(cur, sku);
      cur.pop_back();
      if (fits) {
        maximal = false;
        break;
      }
    }
    if (maximal) {
      MixPlan plan;
      plan.games = cur;
      std::sort(plan.games.begin(), plan.games.end());
      plan.expected_total = combined(cur);
      plan.headroom = 1.0;
      for (std::size_t d = 0; d < kNumDims; ++d) {
        plan.headroom = std::min(
            plan.headroom, 1.0 - plan.expected_total.at(d) / cap.at(d));
      }
      out.push_back(std::move(plan));
    }
  };
  walk(0);

  // Deduplicate (different DFS paths can yield the same multiset).
  std::sort(out.begin(), out.end(),
            [](const MixPlan& a, const MixPlan& b) {
              return a.games < b.games;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const MixPlan& a, const MixPlan& b) {
                          return a.games == b.games;
                        }),
            out.end());
  std::sort(out.begin(), out.end(),
            [](const MixPlan& a, const MixPlan& b) {
              return a.headroom > b.headroom;
            });
  return out;
}

}  // namespace cocg::core
