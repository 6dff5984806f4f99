// Frame-grained game profiler (§IV-A).
//
// Pipeline: each solo run's 5-second frame means (game::
// profile_run_frame_means) → K-means clustering in normalized resource
// space (K by elbow, Fig. 14, unless forced) → loading-cluster
// identification by the high-CPU/low-GPU signature (Observation 3) → stage
// segmentation at loading boundaries (Observation 2) → stage-type catalog
// as cluster combinations (§IV-A2).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/game_profile.h"

namespace cocg::core {

/// Fig. 14's elbow: SSE for K = 1..kElbowKMax, each K the best of
/// kKMeansRestarts fits; the elbow is the K after which the relative SSE
/// gain drops below kElbowMinGain.
inline constexpr int kElbowKMax = 8;
inline constexpr double kElbowMinGain = 0.30;
inline constexpr int kKMeansRestarts = 6;

struct ProfilerConfig {
  int forced_k = 0;  ///< >0 skips the elbow and uses this K
};

/// One segmented stage occurrence inside a run.
struct StageOccurrence {
  std::size_t run_idx = 0;
  TimeMs start = 0;  ///< first frame's index x kFrameSliceMs
  TimeMs end = 0;    ///< (last frame's index + 1) x kFrameSliceMs
  std::vector<int> clusters;  ///< sorted unique clusters observed
  bool loading = false;
  int stage_type = -1;  ///< filled after catalog construction
};

struct ProfilerOutput {
  GameProfile profile;
  std::vector<StageOccurrence> occurrences;  ///< across all input runs
  std::vector<double> sse_by_k;              ///< elbow curve (Fig. 14)
  int chosen_k = 0;
  /// Per-run realized stage-type sequences (predictor training input).
  std::vector<std::vector<int>> stage_sequences;
};

class FrameProfiler {
 public:
  explicit FrameProfiler(ProfilerConfig cfg = {}) : cfg_(cfg) {}

  /// Profile a game from one or more solo runs, each given as its
  /// consecutive kFrameSliceMs frame means (game::RunFrameMeans::means).
  ProfilerOutput profile(const std::string& game_name,
                         std::span<const std::vector<ResourceVector>> runs,
                         Rng& rng) const;

 private:
  ProfilerConfig cfg_;
};

/// Re-segment a (new) run against an existing profile from its frame
/// means: match each frame to its nearest cluster, segment by the
/// profiler's own rule, and label each stage by signature (falling back to
/// the most specific containing type for unseen signatures). Used to turn
/// bulk runs into predictor training sequences.
std::vector<int> infer_stage_sequence(
    const GameProfile& profile, std::span<const ResourceVector> frame_means);

}  // namespace cocg::core
