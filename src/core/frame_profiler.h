// Frame-grained game profiler (§IV-A).
//
// Pipeline: telemetry traces → 5-second frame slices → K-means clustering in
// normalized resource space (K by elbow, Fig. 14, unless forced) → loading-
// cluster identification by the high-CPU/low-GPU signature (Observation 3)
// → stage segmentation at loading boundaries (Observation 2) → stage-type
// catalog as cluster combinations (§IV-A2).
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "core/game_profile.h"
#include "telemetry/trace.h"

namespace cocg::core {

struct ProfilerConfig {
  DurationMs frame_slice_ms = kFrameSliceMs;  ///< the paper's 5 s
  int k_max = 8;             ///< elbow search upper bound
  int forced_k = 0;          ///< >0 skips the elbow and uses this K
  double elbow_min_gain = 0.30;
  int kmeans_restarts = 6;
  /// A cluster joins a stage's signature only when it covers at least this
  /// fraction of the stage's frames — boundary-blended and transient-spike
  /// frames otherwise explode the 2^N stage-type space (§IV-A2 notes real
  /// games stay under 2N types).
  double signature_min_frac = 0.20;
  /// Execution-stage occurrences shorter than this many frames are
  /// transition artifacts (a 5 s slice straddling a loading boundary) and
  /// are dropped from the catalog and the sequences.
  std::size_t min_exec_frames = 2;
  /// Loading signature: GPU below this absolute % AND below this fraction
  /// of the busiest cluster's GPU, with CPU above cpu_floor_pct and the
  /// CPU:GPU ratio above cpu_gpu_ratio (loading burns CPU with a black
  /// screen; low-intensity gameplay does not).
  double loading_gpu_pct = 15.0;
  double loading_gpu_frac = 0.35;
  double loading_cpu_floor_pct = 20.0;
  double loading_cpu_gpu_ratio = 3.0;
};

/// One segmented stage occurrence inside a trace.
struct StageOccurrence {
  std::size_t trace_idx = 0;
  TimeMs start = 0;
  TimeMs end = 0;
  std::vector<int> clusters;  ///< sorted unique clusters observed
  bool loading = false;
  int stage_type = -1;  ///< filled after catalog construction
};

struct ProfilerOutput {
  GameProfile profile;
  std::vector<StageOccurrence> occurrences;  ///< across all input traces
  std::vector<double> sse_by_k;              ///< elbow curve (Fig. 14)
  int chosen_k = 0;
  /// Per-trace realized stage-type sequences (predictor training input).
  std::vector<std::vector<int>> stage_sequences;
};

class FrameProfiler {
 public:
  explicit FrameProfiler(ProfilerConfig cfg = {}) : cfg_(cfg) {}

  /// Profile a game from one or more solo traces.
  ProfilerOutput profile(const std::string& game_name,
                         const std::vector<telemetry::Trace>& traces,
                         Rng& rng) const;

 private:
  ProfilerConfig cfg_;
};

/// Re-segment a (new) run against an existing profile from its frame
/// means, in order: match each frame to its nearest cluster, cut stages at
/// loading boundaries, and label each stage by signature (falling back to
/// the most specific containing type for unseen signatures). Used to turn
/// bulk runs into predictor training sequences; game::
/// profile_run_frame_means builds the means without a trace.
std::vector<int> infer_stage_sequence(
    const GameProfile& profile, std::span<const ResourceVector> frame_means);

}  // namespace cocg::core
