// Heterogeneous game-server model.
//
// Mirrors the paper's testbed (§V-A): a multi-core CPU, system RAM, and one
// or more discrete GPUs. CPU% and RAM are server-wide pools; GPU utilization
// and GPU memory are per-device, because a cloud-game session is pinned to a
// single GPU ("each game is deployed on a single GPU device", §IV-C).
//
// Allocations are cgroup-style caps: a session never receives more than its
// allocation in any dimension; the ContentionModel resolves what it actually
// receives when allocations oversubscribe the hardware.
//
// Storage: hosted sessions live in a dense vector sorted by session id.
// Placement changes (place/remove/reallocate) are control-plane rare;
// the simulation hot loop reads `hosted()` every tick, so reads are
// contiguous and allocation-free while mutations pay an O(n) insert/erase
// on a vector of at most a few dozen entries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/resources.h"
#include "common/types.h"

namespace cocg::hw {

/// Static description of a server SKU.
struct ServerSpec {
  std::string name = "i7-7700-2x2080";
  double cpu_capacity_pct = 100.0;  ///< whole-machine CPU, 100% = all cores
  double ram_mb = 8192.0;
  int num_gpus = 2;                  ///< paper testbed: 2× GTX 2080
  double gpu_capacity_pct = 100.0;   ///< per device
  double gpu_mem_mb = 8192.0;        ///< per device
  /// Relative compute capability vs the paper's baseline testbed (1.0 =
  /// i7-7700 / GTX 2080). A game drawing u% on the baseline draws
  /// u × (baseline_perf / this_perf) % here — the §IV-D migration rule:
  /// "the only thing that will change is the amount of resources
  /// consumed".
  double cpu_perf = 1.0;
  double gpu_perf = 1.0;

  /// Capacity vector as seen by a session pinned to one GPU.
  ResourceVector per_gpu_capacity() const {
    return ResourceVector{cpu_capacity_pct, gpu_capacity_pct, gpu_mem_mb,
                          ram_mb};
  }
};

/// Preset SKUs for heterogeneous-platform experiments.
ServerSpec baseline_sku();  ///< the paper's i7-7700 + 2× GTX 2080
ServerSpec budget_sku();    ///< older half: GTX-1080-class, slower CPU
ServerSpec flagship_sku();  ///< RTX-3090-class, faster CPU, more VRAM

/// One session's standing on a server.
struct SessionPlacement {
  int gpu_index = 0;
  ResourceVector allocation;  ///< cgroup-style cap
};

/// A hosted session as stored in the server's dense table.
struct HostedSession {
  SessionId sid;
  SessionPlacement placement;
};

/// Mutable server state: which sessions it hosts and their allocations.
class Server {
 public:
  Server(ServerId id, ServerSpec spec);

  ServerId id() const { return id_; }
  const ServerSpec& spec() const { return spec_; }

  /// Try to place a session with the given allocation on the given GPU.
  /// Fails (returns false, no change) if any dimension would exceed
  /// capacity. gpu_index must be in [0, num_gpus).
  bool place(SessionId sid, int gpu_index, const ResourceVector& allocation);

  /// Change a hosted session's allocation cap. The new cap may exceed
  /// remaining capacity only if `allow_oversubscribe` — CoCG's regulator
  /// intentionally never does, baselines may. Returns false if the session
  /// is not hosted or (when !allow_oversubscribe) the cap does not fit.
  bool reallocate(SessionId sid, const ResourceVector& allocation,
                  bool allow_oversubscribe = false);

  /// Remove a session. Returns false if not hosted.
  bool remove(SessionId sid);

  bool hosts(SessionId sid) const;
  const SessionPlacement& placement(SessionId sid) const;  ///< requires hosts()
  std::size_t session_count() const { return sessions_.size(); }

  /// Hosted sessions in ascending session-id order — the hot-loop view.
  /// Contiguous, allocation-free; invalidated by place/remove.
  const std::vector<HostedSession>& hosted() const { return sessions_; }

  std::vector<SessionId> session_ids() const;  ///< sorted for determinism
  std::vector<SessionId> sessions_on_gpu(int gpu_index) const;  ///< sorted

  /// Sum of allocations charged against one GPU's capacity view
  /// (CPU/RAM server-wide + that device's GPU dims).
  ResourceVector allocated_on_gpu(int gpu_index) const;

  /// Remaining capacity in the per-GPU view for the given device.
  ResourceVector free_on_gpu(int gpu_index) const;

  /// Fraction of the binding dimension in use on the given device's view,
  /// in [0, 1+]: max over dims of allocated/capacity.
  double utilization_on_gpu(int gpu_index) const;

 private:
  bool fits_after(SessionId sid, int gpu_index,
                  const ResourceVector& allocation) const;
  /// Iterator to the session's slot, or end() if not hosted.
  std::vector<HostedSession>::const_iterator find(SessionId sid) const;
  std::vector<HostedSession>::iterator find(SessionId sid);

  ServerId id_;
  ServerSpec spec_;
  std::vector<HostedSession> sessions_;  ///< sorted by sid
};

}  // namespace cocg::hw
