// Telemetry sample types.
//
// A MetricSample is one observation of a running session: the resource draw
// the monitoring agent reads (cgroup CPU stats + GPU-Z-style GPU counters in
// the paper; the simulated server here) plus the instantaneous FPS. Ground
// truth about the game's internal stage is carried alongside for evaluation
// only — CoCG's online path never reads it.
#pragma once

#include "common/resources.h"
#include "common/types.h"

namespace cocg::telemetry {

struct MetricSample {
  TimeMs t = 0;
  ResourceVector usage;  ///< observed resource consumption
  double fps = 0.0;      ///< observed frames-per-second

  // ---- evaluation-only ground truth (hidden from the online system) ----
  int true_stage_type = -1;    ///< index into the game's stage-type catalog
  bool true_loading = false;   ///< whether the game was in a loading stage
  int true_cluster = -1;       ///< frame-cluster id the game was emitting
};

/// One 5-second frame slice: the mean usage over the slice (the unit the
/// paper clusters, §IV-A2 "each frame cluster represents the amount of
/// resources consumed in a certain 5-second slice").
struct FrameSlice {
  TimeMs start = 0;
  TimeMs end = 0;
  ResourceVector mean_usage;
  int true_stage_type = -1;
  bool true_loading = false;
  int true_cluster = -1;
};

}  // namespace cocg::telemetry
