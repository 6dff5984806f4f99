#include "core/baselines.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/sample_window.h"

namespace cocg::core {

namespace {

const TrainedGame* find_model(
    const std::map<std::string, TrainedGame>& models,
    const std::string& game) {
  auto it = models.find(game);
  return it == models.end() ? nullptr : &it->second;
}

/// First GPU view on which `alloc` fits outright; nullopt when none does.
std::optional<platform::Placement> place_fixed(
    platform::PlatformView& view, const ResourceVector& alloc) {
  for (ServerId server : view.server_ids()) {
    const auto& srv = view.server(server);
    for (int g = 0; g < srv.spec().num_gpus; ++g) {
      if (alloc.fits_within(srv.free_on_gpu(g))) {
        platform::Placement p;
        p.server = server;
        p.gpu_index = g;
        p.allocation = alloc;
        return p;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// VBP
// ---------------------------------------------------------------------------

VbpScheduler::VbpScheduler(std::map<std::string, TrainedGame> models,
                           VbpConfig cfg)
    : models_(std::move(models)), cfg_(cfg) {
  COCG_EXPECTS(cfg_.reserve_fraction > 0.0 && cfg_.reserve_fraction <= 1.0);
}

std::optional<platform::Placement> VbpScheduler::admit(
    platform::PlatformView& view, const platform::GameRequest& req) {
  const TrainedGame* tg = find_model(models_, req.spec->name);
  if (tg == nullptr) return std::nullopt;
  const ResourceVector reservation =
      tg->profile().peak_demand * cfg_.reserve_fraction;
  return place_fixed(view, reservation);
}

// ---------------------------------------------------------------------------
// GAugur
// ---------------------------------------------------------------------------

GaugurScheduler::GaugurScheduler(std::map<std::string, TrainedGame> models,
                                 GaugurConfig cfg)
    : models_(std::move(models)), cfg_(cfg) {
  COCG_EXPECTS(cfg_.gap_share >= 0.0 && cfg_.gap_share <= 1.0);
}

ResourceVector GaugurScheduler::fixed_limit(const std::string& game) const {
  const TrainedGame* tg = find_model(models_, game);
  COCG_EXPECTS_MSG(tg != nullptr, "no profile for " + game);
  ResourceVector mean, peak = tg->profile().peak_demand;
  int n = 0;
  for (const auto& st : tg->profile().stage_types) {
    if (st.loading) continue;
    mean += st.mean_demand;
    ++n;
  }
  if (n > 0) mean *= 1.0 / n;
  return mean + cfg_.gap_share * (peak - mean);
}

std::optional<platform::Placement> GaugurScheduler::admit(
    platform::PlatformView& view, const platform::GameRequest& req) {
  const TrainedGame* tg = find_model(models_, req.spec->name);
  if (tg == nullptr) return std::nullopt;
  const ResourceVector limit = fixed_limit(req.spec->name);
  // Pairwise co-location feasibility: the candidate's fixed limit plus the
  // hosted games' fixed limits must fit the view (GAugur's profiled
  // interference prediction, reduced to its capacity form).
  for (ServerId server : view.server_ids()) {
    const auto& srv = view.server(server);
    for (int g = 0; g < srv.spec().num_gpus; ++g) {
      ResourceVector total = limit;
      bool known = true;
      for (SessionId sid : srv.sessions_on_gpu(g)) {
        const auto info = view.session_info(sid);
        const TrainedGame* htg = find_model(models_, info.spec->name);
        if (htg == nullptr) {
          known = false;
          break;
        }
        total += fixed_limit(info.spec->name);
      }
      if (!known) continue;
      // CPU/RAM drained by other GPUs' sessions.
      ResourceVector cap = srv.spec().per_gpu_capacity();
      for (int og = 0; og < srv.spec().num_gpus; ++og) {
        if (og == g) continue;
        for (SessionId sid : srv.sessions_on_gpu(og)) {
          cap[Dim::kCpuPct] -=
              srv.placement(sid).allocation[Dim::kCpuPct];
          cap[Dim::kRamMb] -= srv.placement(sid).allocation[Dim::kRamMb];
        }
      }
      if (total.fits_within(cap * cfg_.capacity_limit)) {
        platform::Placement p;
        p.server = server;
        p.gpu_index = g;
        p.allocation = limit;
        return p;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Improved (stage-aware reactive)
// ---------------------------------------------------------------------------

ImprovedScheduler::ImprovedScheduler(std::map<std::string, TrainedGame> models,
                                     ImprovedConfig cfg)
    : models_(std::move(models)), cfg_(cfg) {
  COCG_EXPECTS(cfg_.headroom >= 1.0);
  COCG_EXPECTS_MSG(
      cfg_.window >= 1 && cfg_.window <= telemetry::SampleWindow::kCapacity,
      "ImprovedConfig::window must be in [1, " +
          std::to_string(telemetry::SampleWindow::kCapacity) + "]");
}

std::optional<platform::Placement> ImprovedScheduler::admit(
    platform::PlatformView& view, const platform::GameRequest& req) {
  const TrainedGame* tg = find_model(models_, req.spec->name);
  if (tg == nullptr) return std::nullopt;
  // Admits on *current observed* usage plus the candidate's typical draw —
  // no forward prediction.
  ResourceVector typical;
  int n = 0;
  for (const auto& st : tg->profile().stage_types) {
    if (st.loading) continue;
    typical += st.mean_demand;
    ++n;
  }
  if (n > 0) typical *= 1.0 / n;
  typical *= cfg_.headroom;

  for (ServerId server : view.server_ids()) {
    const auto& srv = view.server(server);
    for (int g = 0; g < srv.spec().num_gpus; ++g) {
      ResourceVector observed;
      for (SessionId sid : srv.sessions_on_gpu(g)) {
        const auto& samples = view.session_samples(sid);
        const std::size_t count = samples.count();
        if (count == 0) continue;
        ResourceVector mean;
        const std::size_t first = count > cfg_.window ? count - cfg_.window : 0;
        for (std::size_t i = first; i < count; ++i) {
          mean += samples.at(i).usage;
        }
        mean *= 1.0 / static_cast<double>(count - first);
        observed += mean;
      }
      const ResourceVector cap = srv.spec().per_gpu_capacity();
      if ((observed + typical).fits_within(cap * cfg_.capacity_limit)) {
        platform::Placement p;
        p.server = server;
        p.gpu_index = g;
        p.allocation = ResourceVector::min(typical, srv.free_on_gpu(g));
        return p;
      }
    }
  }
  return std::nullopt;
}

void ImprovedScheduler::control(platform::PlatformView& view) {
  // Reactive reallocation: follow the recent observation with headroom.
  for (SessionId sid : view.session_ids()) {
    const auto& samples = view.session_samples(sid);
    const std::size_t count = samples.count();
    if (count == 0) continue;
    ResourceVector mean;
    const std::size_t first = count > cfg_.window ? count - cfg_.window : 0;
    for (std::size_t i = first; i < count; ++i) {
      mean += samples.at(i).usage;
    }
    mean *= 1.0 / static_cast<double>(count - first);
    view.reallocate(sid, mean * cfg_.headroom, /*allow_oversubscribe=*/true);
  }
}

}  // namespace cocg::core
