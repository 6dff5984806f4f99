#include "telemetry/trace.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cocg::telemetry {

TimeMs Trace::start_time() const {
  COCG_EXPECTS(!empty());
  return samples_.front().t;
}

TimeMs Trace::end_time() const {
  COCG_EXPECTS(!empty());
  return samples_.back().t;
}

namespace {

// Votes per key in a flat array, reused across slices. A slice holds a
// handful of samples, so a linear search beats any map.
class VoteTally {
 public:
  void clear() { votes_.clear(); }
  void add(int key) {
    for (auto& [k, n] : votes_) {
      if (k == key) {
        ++n;
        return;
      }
    }
    votes_.emplace_back(key, 1);
  }
  /// The key with the most votes; a tie goes to the smallest key.
  int majority() const {
    int best = -1, best_n = -1;
    for (const auto& [k, n] : votes_) {
      if (n > best_n || (n == best_n && k < best)) {
        best = k;
        best_n = n;
      }
    }
    return best;
  }

 private:
  std::vector<std::pair<int, int>> votes_;
};

}  // namespace

std::vector<FrameSlice> Trace::to_frame_slices(DurationMs slice_ms) const {
  COCG_EXPECTS(slice_ms > 0);
  std::vector<FrameSlice> out;
  if (empty()) return out;

  const TimeMs t0 = start_time();
  // At most one slice per sample, however far apart the samples lie.
  out.reserve(std::min(
      samples_.size(),
      static_cast<std::size_t>((end_time() - t0) / slice_ms) + 1));
  VoteTally stage_votes, cluster_votes;
  std::size_t i = 0;
  while (i < samples_.size()) {
    const TimeMs slice_start =
        t0 + ((samples_[i].t - t0) / slice_ms) * slice_ms;
    const TimeMs slice_end = slice_start + slice_ms;

    ResourceVector acc;
    std::size_t n = 0;
    stage_votes.clear();
    cluster_votes.clear();
    int loading_votes = 0;
    while (i < samples_.size() && samples_[i].t < slice_end) {
      acc += samples_[i].usage;
      stage_votes.add(samples_[i].true_stage_type);
      cluster_votes.add(samples_[i].true_cluster);
      if (samples_[i].true_loading) ++loading_votes;
      ++n;
      ++i;
    }
    COCG_CHECK(n > 0);

    FrameSlice fs;
    fs.start = slice_start;
    fs.end = slice_end;
    fs.mean_usage = acc * (1.0 / static_cast<double>(n));
    fs.true_stage_type = stage_votes.majority();
    fs.true_cluster = cluster_votes.majority();
    fs.true_loading = loading_votes * 2 > static_cast<int>(n);
    out.push_back(fs);
  }
  return out;
}

}  // namespace cocg::telemetry
