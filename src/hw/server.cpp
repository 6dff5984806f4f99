#include "hw/server.h"

#include <algorithm>

#include "common/check.h"

namespace cocg::hw {

namespace {

/// Sorted-insert position for `sid` in a sid-ascending table.
inline bool sid_less(const HostedSession& h, SessionId sid) {
  return h.sid < sid;
}

}  // namespace

Server::Server(ServerId id, ServerSpec spec) : id_(id), spec_(std::move(spec)) {
  COCG_EXPECTS(spec_.num_gpus > 0);
  COCG_EXPECTS(spec_.cpu_capacity_pct > 0.0);
  COCG_EXPECTS(spec_.gpu_capacity_pct > 0.0);
  COCG_EXPECTS(spec_.gpu_mem_mb > 0.0);
  COCG_EXPECTS(spec_.ram_mb > 0.0);
}

std::vector<HostedSession>::const_iterator Server::find(SessionId sid) const {
  auto it = std::lower_bound(sessions_.begin(), sessions_.end(), sid, sid_less);
  if (it != sessions_.end() && it->sid == sid) return it;
  return sessions_.end();
}

std::vector<HostedSession>::iterator Server::find(SessionId sid) {
  auto it = std::lower_bound(sessions_.begin(), sessions_.end(), sid, sid_less);
  if (it != sessions_.end() && it->sid == sid) return it;
  return sessions_.end();
}

ResourceVector Server::allocated_on_gpu(int gpu_index) const {
  COCG_EXPECTS(gpu_index >= 0 && gpu_index < spec_.num_gpus);
  ResourceVector total;
  for (const auto& h : sessions_) {
    // CPU and RAM are server-wide pools: every session counts.
    total[Dim::kCpuPct] += h.placement.allocation[Dim::kCpuPct];
    total[Dim::kRamMb] += h.placement.allocation[Dim::kRamMb];
    if (h.placement.gpu_index == gpu_index) {
      total[Dim::kGpuPct] += h.placement.allocation[Dim::kGpuPct];
      total[Dim::kGpuMemMb] += h.placement.allocation[Dim::kGpuMemMb];
    }
  }
  return total;
}

ResourceVector Server::free_on_gpu(int gpu_index) const {
  const ResourceVector cap = spec_.per_gpu_capacity();
  ResourceVector used = allocated_on_gpu(gpu_index);
  ResourceVector free = cap - used;
  // Oversubscribed dims report 0 free rather than negative.
  return free.clamped_to(cap);
}

double Server::utilization_on_gpu(int gpu_index) const {
  const ResourceVector cap = spec_.per_gpu_capacity();
  const ResourceVector used = allocated_on_gpu(gpu_index);
  double u = 0.0;
  for (std::size_t i = 0; i < kNumDims; ++i) {
    u = std::max(u, used.at(i) / cap.at(i));
  }
  return u;
}

bool Server::fits_after(SessionId sid, int gpu_index,
                        const ResourceVector& allocation) const {
  const ResourceVector cap = spec_.per_gpu_capacity();
  ResourceVector used = allocated_on_gpu(gpu_index);
  // If the session is already hosted, subtract its current contribution to
  // this view before adding the new allocation.
  auto it = find(sid);
  if (it != sessions_.end()) {
    const auto& pl = it->placement;
    used[Dim::kCpuPct] -= pl.allocation[Dim::kCpuPct];
    used[Dim::kRamMb] -= pl.allocation[Dim::kRamMb];
    if (pl.gpu_index == gpu_index) {
      used[Dim::kGpuPct] -= pl.allocation[Dim::kGpuPct];
      used[Dim::kGpuMemMb] -= pl.allocation[Dim::kGpuMemMb];
    }
  }
  return (used + allocation).fits_within(cap);
}

bool Server::place(SessionId sid, int gpu_index,
                   const ResourceVector& allocation) {
  COCG_EXPECTS(gpu_index >= 0 && gpu_index < spec_.num_gpus);
  COCG_EXPECTS_MSG(allocation.non_negative(),
                   "allocation must be non-negative");
  COCG_EXPECTS_MSG(find(sid) == sessions_.cend(),
                   "session already placed; use reallocate()");
  if (!fits_after(sid, gpu_index, allocation)) return false;
  // Sids are admitted in increasing order, so this is usually a push_back.
  auto pos =
      std::lower_bound(sessions_.begin(), sessions_.end(), sid, sid_less);
  sessions_.insert(pos, HostedSession{sid, {gpu_index, allocation}});
  return true;
}

bool Server::reallocate(SessionId sid, const ResourceVector& allocation,
                        bool allow_oversubscribe) {
  COCG_EXPECTS(allocation.non_negative());
  auto it = find(sid);
  if (it == sessions_.end()) return false;
  if (!allow_oversubscribe &&
      !fits_after(sid, it->placement.gpu_index, allocation)) {
    return false;
  }
  it->placement.allocation = allocation;
  return true;
}

bool Server::remove(SessionId sid) {
  auto it = find(sid);
  if (it == sessions_.end()) return false;
  sessions_.erase(it);
  return true;
}

bool Server::hosts(SessionId sid) const { return find(sid) != sessions_.end(); }

const SessionPlacement& Server::placement(SessionId sid) const {
  auto it = find(sid);
  COCG_EXPECTS_MSG(it != sessions_.end(), "session not hosted here");
  return it->placement;
}

std::vector<SessionId> Server::session_ids() const {
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (const auto& h : sessions_) ids.push_back(h.sid);
  return ids;  // already sorted: the table is sid-ascending
}

std::vector<SessionId> Server::sessions_on_gpu(int gpu_index) const {
  COCG_EXPECTS(gpu_index >= 0 && gpu_index < spec_.num_gpus);
  std::vector<SessionId> ids;
  for (const auto& h : sessions_) {
    if (h.placement.gpu_index == gpu_index) ids.push_back(h.sid);
  }
  return ids;  // already sorted
}

ServerSpec baseline_sku() { return ServerSpec{}; }

ServerSpec budget_sku() {
  ServerSpec s;
  s.name = "i5-7400-2x1080";
  s.cpu_perf = 0.7;
  s.gpu_perf = 0.55;
  s.gpu_mem_mb = 8192.0;
  return s;
}

ServerSpec flagship_sku() {
  ServerSpec s;
  s.name = "i9-12900-2x3090";
  s.cpu_perf = 1.8;
  s.gpu_perf = 1.9;
  s.gpu_mem_mb = 24576.0;
  s.ram_mb = 16384.0;
  return s;
}

}  // namespace cocg::hw
