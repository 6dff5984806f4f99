// Traces: ordered sequences of metric samples with frame-slice aggregation,
// kept for evaluation against a run's ground truth. Training streams a run
// into its frame means instead (game::profile_run_frame_means), and a live
// session keeps its newest samples in a SampleWindow (sample_window.h).
#pragma once

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "telemetry/sample.h"

namespace cocg::telemetry {

class Trace {
 public:
  /// Append a sample; timestamps must be non-decreasing.
  void add(const MetricSample& s) {
    COCG_EXPECTS_MSG(samples_.empty() || s.t >= samples_.back().t,
                     "trace timestamps must be non-decreasing");
    samples_.push_back(s);
  }

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }
  const MetricSample& operator[](std::size_t i) const { return samples_[i]; }
  const std::vector<MetricSample>& samples() const { return samples_; }

  TimeMs start_time() const;  ///< requires !empty()
  TimeMs end_time() const;    ///< requires !empty()

  /// Aggregate into consecutive slices of `slice_ms` (default: the paper's
  /// 5-second frames). A slice's ground-truth fields take the majority value
  /// of its samples. Partial trailing slices are kept.
  std::vector<FrameSlice> to_frame_slices(
      DurationMs slice_ms = kFrameSliceMs) const;

 private:
  std::vector<MetricSample> samples_;
};

}  // namespace cocg::telemetry
