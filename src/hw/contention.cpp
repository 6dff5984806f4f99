#include "hw/contention.h"

#include <algorithm>

#include "common/check.h"
#include "hw/server.h"

namespace cocg::hw {

std::vector<SessionSupply> ContentionModel::resolve(
    const ResourceVector& capacity, const std::vector<SessionDraw>& draws) {
  for (std::size_t i = 0; i < kNumDims; ++i) {
    COCG_EXPECTS_MSG(capacity.at(i) > 0.0, "capacity must be positive");
  }

  std::vector<SessionSupply> out;
  out.reserve(draws.size());

  // Desired draw per session and per-dimension totals.
  std::vector<ResourceVector> desired(draws.size());
  ResourceVector total;
  for (std::size_t s = 0; s < draws.size(); ++s) {
    COCG_EXPECTS(draws[s].demand.non_negative());
    COCG_EXPECTS(draws[s].allocation.non_negative());
    desired[s] = ResourceVector::min(draws[s].demand, draws[s].allocation);
    total += desired[s];
  }

  // Per-dimension scale factor: 1 when the pool is not saturated, else
  // capacity/total so the pool divides proportionally.
  ResourceVector scale{1.0, 1.0, 1.0, 1.0};
  for (std::size_t i = 0; i < kNumDims; ++i) {
    if (total.at(i) > capacity.at(i)) {
      scale.at(i) = capacity.at(i) / total.at(i);
    }
  }

  for (std::size_t s = 0; s < draws.size(); ++s) {
    SessionSupply sup;
    sup.sid = draws[s].sid;
    for (std::size_t i = 0; i < kNumDims; ++i) {
      sup.supplied.at(i) = desired[s].at(i) * scale.at(i);
    }
    sup.satisfaction = draws[s].demand.satisfaction_ratio(sup.supplied);
    out.push_back(sup);
  }
  return out;
}

const std::vector<SessionSupply>& resolve_server(
    const ServerSpec& spec, const std::vector<PinnedDraw>& draws,
    ServerResolveScratch& scratch) {
  obs::StageScope profile_scope(scratch.prof);
  // Desired draw per session; per-pool totals. Per-device totals accumulate
  // in draw order within each bucket, matching the original map-based
  // implementation bit-for-bit.
  scratch.desired.clear();
  scratch.desired.resize(draws.size());
  auto& desired = scratch.desired;
  double cpu_total = 0.0, ram_total = 0.0;
  const std::size_t ngpus = static_cast<std::size_t>(spec.num_gpus);
  scratch.gpu_total.assign(ngpus, 0.0);
  scratch.vram_total.assign(ngpus, 0.0);
  for (std::size_t s = 0; s < draws.size(); ++s) {
    const auto& d = draws[s];
    COCG_EXPECTS(d.gpu_index >= 0 && d.gpu_index < spec.num_gpus);
    COCG_EXPECTS(d.draw.demand.non_negative());
    COCG_EXPECTS(d.draw.allocation.non_negative());
    desired[s] = ResourceVector::min(d.draw.demand, d.draw.allocation);
    cpu_total += desired[s][Dim::kCpuPct];
    ram_total += desired[s][Dim::kRamMb];
    scratch.gpu_total[d.gpu_index] += desired[s][Dim::kGpuPct];
    scratch.vram_total[d.gpu_index] += desired[s][Dim::kGpuMemMb];
  }

  const double cpu_scale =
      cpu_total > spec.cpu_capacity_pct ? spec.cpu_capacity_pct / cpu_total
                                        : 1.0;
  const double ram_scale =
      ram_total > spec.ram_mb ? spec.ram_mb / ram_total : 1.0;
  auto device_scale = [](const std::vector<double>& totals, int g,
                         double cap) {
    const double total = totals[static_cast<std::size_t>(g)];
    if (total <= cap) return 1.0;
    return cap / total;
  };

  scratch.out.clear();
  scratch.out.reserve(draws.size());
  for (std::size_t s = 0; s < draws.size(); ++s) {
    const auto& d = draws[s];
    SessionSupply sup;
    sup.sid = d.draw.sid;
    sup.supplied[Dim::kCpuPct] = desired[s][Dim::kCpuPct] * cpu_scale;
    sup.supplied[Dim::kRamMb] = desired[s][Dim::kRamMb] * ram_scale;
    sup.supplied[Dim::kGpuPct] =
        desired[s][Dim::kGpuPct] *
        device_scale(scratch.gpu_total, d.gpu_index, spec.gpu_capacity_pct);
    sup.supplied[Dim::kGpuMemMb] =
        desired[s][Dim::kGpuMemMb] *
        device_scale(scratch.vram_total, d.gpu_index, spec.gpu_mem_mb);
    sup.satisfaction = d.draw.demand.satisfaction_ratio(sup.supplied);
    scratch.out.push_back(sup);
  }
  return scratch.out;
}

std::vector<SessionSupply> resolve_server(const ServerSpec& spec,
                                          const std::vector<PinnedDraw>& draws) {
  ServerResolveScratch scratch;
  return resolve_server(spec, draws, scratch);  // copies scratch.out
}

}  // namespace cocg::hw
