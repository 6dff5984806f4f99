// Offline profiling-run generation.
//
// The paper trains CoCG on (a) traces collected from repeated laboratory
// runs and (b) Alibaba-cloud player logs (§V-D2). We reproduce both as
// synthetic generators: full-supply solo runs streamed into 5-second frame
// means (the profiler's clustering input) and bulk stage-sequence corpora
// (the predictor's training input). A run can also be recorded as a whole
// telemetry trace, for evaluation against its ground truth.
#pragma once

#include <cstdint>
#include <vector>

#include "game/spec.h"
#include "telemetry/trace.h"

namespace cocg::game {

struct TraceGenConfig {
  DurationMs sample_period_ms = 1000;
  /// Relative stddev of measurement noise added by the (simulated) probe.
  double measurement_noise_rel = 0.02;
};

/// Run one scripted play-through standalone on an idle server (demand fully
/// supplied) and record its telemetry trace, ground truth included. For
/// evaluation: training reads a run through profile_run_frame_means.
telemetry::Trace profile_run(const GameSpec& spec, std::size_t script_idx,
                             std::uint64_t player_id, std::uint64_t seed,
                             const TraceGenConfig& cfg = {});

/// One solo run as the profiler sees it.
struct RunFrameMeans {
  /// Mean usage of each kFrameSliceMs slice; means[i] covers
  /// [i, i + 1) x kFrameSliceMs.
  std::vector<ResourceVector> means;
  TimeMs last_sample_ms = 0;  ///< the run's length: its first sample is at 0
};

/// The kFrameSliceMs frame means of the trace profile_run(spec, script_idx,
/// player_id, seed, cfg) records, built as the run plays without keeping
/// the trace: the same draws, each mean summed in sample order and scaled
/// by 1/n, as Trace::to_frame_slices computes them. Requires
/// cfg.sample_period_ms <= kFrameSliceMs, so that no slice is empty.
RunFrameMeans profile_run_frame_means(const GameSpec& spec,
                                      std::size_t script_idx,
                                      std::uint64_t player_id,
                                      std::uint64_t seed,
                                      const TraceGenConfig& cfg = {});

/// One realized play-through's stage-type sequence.
struct RunRecord {
  std::size_t script_idx = 0;
  std::uint64_t player_id = 0;
  std::vector<int> stage_seq;
};

/// Generate `n_runs` play-throughs across `n_players` players with scripts
/// chosen uniformly ("when a game is assigned, it randomly selects one from
/// the scripts", §V-B2).
std::vector<RunRecord> generate_corpus(const GameSpec& spec, int n_runs,
                                       int n_players, std::uint64_t seed);

}  // namespace cocg::game
