// Contention resolution: what each session actually receives.
//
// Allocations are caps, so a session's *desired* draw is
// min(demand, allocation) per dimension. When the sum of desired draws on a
// shared pool exceeds hardware capacity (possible when a baseline scheduler
// oversubscribes, or when demand spikes before the regulator reacts), the
// pool is divided proportionally to desired draw — the behaviour of CFS-like
// CPU shares and GPU time-slicing under saturation.
#pragma once

#include <vector>

#include "common/resources.h"
#include "common/types.h"
#include "obs/profiler.h"

namespace cocg::hw {

struct SessionDraw {
  SessionId sid;
  ResourceVector demand;      ///< what the game wants this instant
  ResourceVector allocation;  ///< its cgroup-style cap
};

struct SessionSupply {
  SessionId sid;
  ResourceVector supplied;  ///< what it actually receives
  /// min over demanded dims of supplied/demand, in [0, 1]. 1 == no squeeze.
  double satisfaction = 1.0;
};

class ContentionModel {
 public:
  /// Resolve one shared capacity view (a single GPU's view of the server:
  /// server-wide CPU/RAM + that device's GPU dims are all in `capacity`).
  ///
  /// Every element of `draws` must belong to the same capacity view.
  /// Deterministic: output order matches input order.
  static std::vector<SessionSupply> resolve(const ResourceVector& capacity,
                                            const std::vector<SessionDraw>& draws);
};

/// A draw tagged with the GPU device the session is pinned to.
struct PinnedDraw {
  SessionDraw draw;
  int gpu_index = 0;
};

struct ServerSpec;  // fwd decl (server.h)

/// Reusable buffers for resolve_server. Hot loops keep one and reuse it, so
/// steady-state resolution performs zero heap allocation: every vector is
/// cleared (capacity retained) and refilled on each call.
struct ServerResolveScratch {
  std::vector<ResourceVector> desired;  ///< per draw
  std::vector<double> gpu_total;        ///< per device, indexed by gpu
  std::vector<double> vram_total;       ///< per device, indexed by gpu
  std::vector<SessionSupply> out;       ///< result, order matches input
  /// Stage-profiler handle, bound to the obs domain active when the
  /// scratch is constructed (the owning platform's shard domain).
  obs::StageTimer prof =
      obs::stage_timer(obs::Stage::kContentionResolve);
};

/// Whole-server resolution: CPU% and RAM are divided across ALL sessions on
/// the server; GPU utilization and GPU memory are divided per device.
/// Output order matches input order.
std::vector<SessionSupply> resolve_server(const struct ServerSpec& spec,
                                          const std::vector<PinnedDraw>& draws);

/// Allocation-free variant: results land in (and are valid until the next
/// call with) `scratch.out`.
const std::vector<SessionSupply>& resolve_server(
    const struct ServerSpec& spec, const std::vector<PinnedDraw>& draws,
    ServerResolveScratch& scratch);

}  // namespace cocg::hw
