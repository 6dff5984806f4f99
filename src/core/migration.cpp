#include "core/migration.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "obs/obs.h"

namespace cocg::core {

namespace {

ResourceVector rescale(const ResourceVector& v, double cpu_ratio,
                       double gpu_ratio) {
  ResourceVector out = v;
  out[Dim::kCpuPct] = std::min(100.0, out[Dim::kCpuPct] * cpu_ratio);
  out[Dim::kGpuPct] = std::min(100.0, out[Dim::kGpuPct] * gpu_ratio);
  return out;
}

}  // namespace

GameProfile migrate_profile(const GameProfile& profile,
                            const hw::ServerSpec& from,
                            const hw::ServerSpec& to) {
  COCG_EXPECTS(from.cpu_perf > 0.0 && from.gpu_perf > 0.0);
  COCG_EXPECTS(to.cpu_perf > 0.0 && to.gpu_perf > 0.0);
  // Utilization on `to` = utilization on `from` × (from_perf / to_perf).
  const double cpu_ratio = from.cpu_perf / to.cpu_perf;
  const double gpu_ratio = from.gpu_perf / to.gpu_perf;

  GameProfile out = profile;
  for (auto& c : out.clusters) {
    c.centroid = rescale(c.centroid, cpu_ratio, gpu_ratio);
  }
  for (auto& st : out.stage_types) {
    st.peak_demand = rescale(st.peak_demand, cpu_ratio, gpu_ratio);
    st.mean_demand = rescale(st.mean_demand, cpu_ratio, gpu_ratio);
  }
  out.peak_demand = rescale(out.peak_demand, cpu_ratio, gpu_ratio);
  if (obs::enabled()) {
    obs::metrics().counter("migration.profiles").add();
    obs::events().record(
        0, obs::MigrationEvent{profile.game_name, from.name, to.name});
  }
  return out;
}

TrainedGame migrate_trained_game(TrainedGame&& tg,
                                 const hw::ServerSpec& from,
                                 const hw::ServerSpec& to,
                                 const game::GameSpec* scaled) {
  COCG_EXPECTS(tg.predictor != nullptr);
  COCG_EXPECTS(scaled != nullptr);
  // The one new object is the rescaled profile: corpus and forests stay
  // shared. The refit memo's fits were made against the old profile, so
  // the migrated bundle starts its own.
  auto migrated = std::make_shared<GameBundle>(tg.bundle());
  migrated->profile = std::make_shared<const GameProfile>(
      migrate_profile(tg.profile(), from, to));
  migrated->refits = std::make_shared<RefitMemo>();
  TrainedGame out;
  out.spec = scaled;
  out.predictor =
      std::make_unique<StagePredictor>(std::move(migrated), *tg.predictor);
  return out;
}

double profile_centroid_error(const GameProfile& a, const GameProfile& b) {
  COCG_EXPECTS(a.num_clusters() == b.num_clusters());
  COCG_EXPECTS(a.num_clusters() > 0);
  // Clusters may be numbered differently across independent fits: match
  // greedily by nearest centroid.
  double total = 0.0;
  for (const auto& ca : a.clusters) {
    double best = std::numeric_limits<double>::max();
    for (const auto& cb : b.clusters) {
      best = std::min(best, ca.centroid.distance(cb.centroid, a.norm_scale));
    }
    total += best;
  }
  return total / static_cast<double>(a.num_clusters());
}

}  // namespace cocg::core
