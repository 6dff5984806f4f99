// Traces: ordered sequences of metric samples, with CSV round-tripping and
// frame-slice aggregation (the profiler's input). Offline only: a live
// session keeps its newest samples in a SampleWindow (sample_window.h).
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "telemetry/sample.h"

namespace cocg::telemetry {

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string label) : label_(std::move(label)) {}

  const std::string& label() const { return label_; }

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

  /// CSV persistence (header row + one row per sample).
  void save_csv(const std::string& path) const;
  static Trace load_csv(const std::string& path);

 private:
  std::string label_;
  std::vector<MetricSample> samples_;
};

}  // namespace cocg::telemetry
