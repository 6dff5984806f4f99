// SampleWindow: a live session's newest telemetry samples, in a fixed ring.
//
// The online loop reads only the newest detection window of 1 Hz samples
// (§IV-B: 5 samples by default), so a live session keeps the last
// kCapacity samples inline and a running count of every sample it has
// recorded. Samples are addressed by absolute number (0 = the session's
// first sample), so readers keep their `count - W` arithmetic however long
// the session has run. Offline runs that need whole histories use Trace.
#pragma once

#include <array>
#include <cstddef>

#include "common/check.h"
#include "telemetry/sample.h"

namespace cocg::telemetry {

class SampleWindow {
 public:
  /// Samples retained. A power of two (the ring index is `count & mask`),
  /// and an upper bound on every scheduler's averaging window.
  static constexpr std::size_t kCapacity = 32;
  static_assert((kCapacity & (kCapacity - 1)) == 0,
                "kCapacity must be a power of two");

  /// Record the next sample; timestamps must be non-decreasing. Runs once
  /// per session per simulated tick: a compare and a 64-byte store.
  void add(const MetricSample& s) {
    COCG_EXPECTS_MSG(count_ == 0 || s.t >= back().t,
                     "sample timestamps must be non-decreasing");
    ring_[count_ & kMask] = s;
    ++count_;
  }

  /// Samples ever added (not capped at kCapacity).
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Absolute number of the oldest retained sample.
  std::size_t first() const {
    return count_ > kCapacity ? count_ - kCapacity : 0;
  }

  /// Sample number `i`; it must be retained: first() <= i < count().
  const MetricSample& at(std::size_t i) const {
    COCG_EXPECTS_MSG(i >= first() && i < count_,
                     "sample number outside the retained window");
    return ring_[i & kMask];
  }
  /// The newest sample; requires !empty().
  const MetricSample& back() const {
    COCG_EXPECTS(count_ > 0);
    return ring_[(count_ - 1) & kMask];
  }

 private:
  static constexpr std::size_t kMask = kCapacity - 1;

  std::array<MetricSample, kCapacity> ring_{};
  std::size_t count_ = 0;
};

}  // namespace cocg::telemetry
