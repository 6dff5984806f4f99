// Cloud-game streaming pipeline model (§II-A).
//
// The paper's workflow: player input travels to the server, the CPU
// processes the command, the GPU renders the frame, the encoder compresses
// it, the network returns it, and the client decodes — cloud gaming is
// playable only when this loop stays within tens of milliseconds (the
// paper quotes a <3 ms network budget).
//
// StreamingModel turns a session's instantaneous FPS and CPU satisfaction
// into an end-to-end interaction latency sample:
//
//   latency = uplink + input processing / cpu_sat + frame time (1/fps)
//           + encode / cpu_sat + downlink (+ jitter) + decode
//
// Encoding and input processing run on the same contended CPU as the game,
// so co-location pressure stretches them — the mechanism by which resource
// squeeze becomes user-visible lag.
#pragma once

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace cocg::platform {

// Fixed pipeline segments (ms).
inline constexpr double kNetworkRttMs = 6.0;  ///< paper wants <3 ms one-way
/// Command compilation at full CPU supply.
inline constexpr double kInputProcessMs = 1.0;
inline constexpr double kEncodeMs = 5.0;  ///< frame encode at full supply
inline constexpr double kDecodeMs = 4.0;  ///< client-side decode

struct StreamingConfig {
  double network_jitter_ms = 1.0;  ///< stddev of per-sample jitter
  double latency_budget_ms = 100.0;  ///< interaction-latency QoS bound
};

class StreamingModel {
 public:
  explicit StreamingModel(StreamingConfig cfg = {});

  /// One end-to-end latency sample. `fps` must be > 0 (an execution-stage
  /// tick); `cpu_satisfaction` in (0, 1] stretches the CPU-bound pipeline
  /// segments. `rng` supplies network jitter. Inline: sampled once per
  /// rendering tick on the simulation hot path.
  double latency_ms(double fps, double cpu_satisfaction, Rng& rng) const {
    COCG_EXPECTS_MSG(fps > 0.0,
                     "latency is defined for rendering ticks only");
    const double sat = std::clamp(cpu_satisfaction, 0.05, 1.0);
    const double frame_time_ms = 1000.0 / fps;
    const double jitter =
        cfg_.network_jitter_ms > 0.0
            ? std::max(0.0, rng.normal(0.0, cfg_.network_jitter_ms))
            : 0.0;
    return kNetworkRttMs + jitter + kInputProcessMs / sat + frame_time_ms +
           kEncodeMs / sat + kDecodeMs;
  }

  const StreamingConfig& config() const { return cfg_; }

 private:
  StreamingConfig cfg_;
};

}  // namespace cocg::platform
