#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

#include "common/check.h"

namespace cocg::telemetry {
namespace {

MetricSample sample(TimeMs t, double cpu, double gpu, int stage = 0,
                    bool loading = false, int cluster = 0) {
  MetricSample s;
  s.t = t;
  s.usage = ResourceVector{cpu, gpu, 100, 100};
  s.fps = 60.0;
  s.true_stage_type = stage;
  s.true_loading = loading;
  s.true_cluster = cluster;
  return s;
}

TEST(Trace, AppendAndAccess) {
  Trace t;
  EXPECT_TRUE(t.empty());
  t.add(sample(0, 10, 20));
  t.add(sample(1000, 11, 21));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].t, 0);
  EXPECT_EQ(t.start_time(), 0);
  EXPECT_EQ(t.end_time(), 1000);
}

TEST(Trace, RejectsTimeRegression) {
  Trace t;
  t.add(sample(1000, 1, 1));
  EXPECT_THROW(t.add(sample(500, 1, 1)), ContractError);
  EXPECT_NO_THROW(t.add(sample(1000, 1, 1)));  // equal is allowed
}

TEST(Trace, EmptyAccessorsThrow) {
  Trace t;
  EXPECT_THROW(t.start_time(), ContractError);
  EXPECT_THROW(t.end_time(), ContractError);
}

TEST(Trace, FrameSlicesAggregateMeans) {
  Trace t;
  // 5 one-second samples → one 5 s slice with the mean usage.
  for (int i = 0; i < 5; ++i) {
    t.add(sample(i * 1000, 10.0 * (i + 1), 50));
  }
  const auto slices = t.to_frame_slices(5000);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_DOUBLE_EQ(slices[0].mean_usage.cpu(), 30.0);  // mean of 10..50
  EXPECT_DOUBLE_EQ(slices[0].mean_usage.gpu(), 50.0);
  EXPECT_EQ(slices[0].start, 0);
  EXPECT_EQ(slices[0].end, 5000);
}

TEST(Trace, FrameSlicesPartialTailKept) {
  Trace t;
  for (int i = 0; i < 7; ++i) t.add(sample(i * 1000, 10, 10));
  const auto slices = t.to_frame_slices(5000);
  ASSERT_EQ(slices.size(), 2u);
}

TEST(Trace, FrameSlicesMajorityGroundTruth) {
  Trace t;
  t.add(sample(0, 1, 1, /*stage=*/2, /*loading=*/false, /*cluster=*/1));
  t.add(sample(1000, 1, 1, 2, false, 1));
  t.add(sample(2000, 1, 1, 2, false, 1));
  t.add(sample(3000, 1, 1, 0, true, 0));
  t.add(sample(4000, 1, 1, 0, true, 0));
  const auto slices = t.to_frame_slices(5000);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].true_stage_type, 2);
  EXPECT_EQ(slices[0].true_cluster, 1);
  EXPECT_FALSE(slices[0].true_loading);  // 2 of 5 < majority
}

TEST(Trace, FrameSlicesMajorityTieGoesToSmallestKey) {
  Trace t;
  t.add(sample(0, 1, 1, /*stage=*/3, false, /*cluster=*/4));
  t.add(sample(1000, 1, 1, 3, false, 4));
  t.add(sample(2000, 1, 1, -1, false, 2));
  t.add(sample(3000, 1, 1, -1, false, 2));
  t.add(sample(4000, 1, 1, 5, false, 7));
  const auto slices = t.to_frame_slices(5000);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].true_stage_type, -1);
  EXPECT_EQ(slices[0].true_cluster, 2);
}

// Slices are sized by the samples, not by the time they span.
TEST(Trace, FrameSlicesOfFarApartSamples) {
  Trace t;
  t.add(sample(0, 1, 1));
  t.add(sample(TimeMs{1} << 50, 3, 3));
  const auto slices = t.to_frame_slices(5000);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[1].mean_usage.cpu(), 3.0);
}

/// Majority of `votes` as an ordered map iterates it: first strictly
/// larger count in ascending key order.
int map_majority(const std::map<int, int>& votes) {
  int best = -1, best_n = -1;
  for (const auto& [k, v] : votes) {
    if (v > best_n) {
      best = k;
      best_n = v;
    }
  }
  return best;
}

// The flat vote counts pick what per-slice ordered maps picked, on
// traces whose slices tie often: few keys, -1 among them, irregular
// sample gaps and slice widths.
TEST(Trace, FrameSlicesMatchMapReference) {
  Rng rng(17);
  int ties = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Trace t;
    TimeMs now = rng.uniform_int(0, 3000);
    const int n = static_cast<int>(rng.uniform_int(1, 80));
    for (int i = 0; i < n; ++i) {
      t.add(sample(now, rng.uniform(0, 100), rng.uniform(0, 100),
                   static_cast<int>(rng.uniform_int(-1, 2)), rng.chance(0.5),
                   static_cast<int>(rng.uniform_int(-1, 3))));
      now += rng.uniform_int(0, 2500);
    }
    const DurationMs slice_ms = rng.uniform_int(1, 8) * 1000;
    const auto got = t.to_frame_slices(slice_ms);

    std::size_t i = 0, s = 0;
    const TimeMs t0 = t.start_time();
    while (i < t.size()) {
      const TimeMs start = t0 + ((t[i].t - t0) / slice_ms) * slice_ms;
      std::map<int, int> stage_votes, cluster_votes;
      int top = 0;
      for (; i < t.size() && t[i].t < start + slice_ms; ++i) {
        top = std::max(top, ++stage_votes[t[i].true_stage_type]);
        ++cluster_votes[t[i].true_cluster];
      }
      int at_top = 0;
      for (const auto& [k, v] : stage_votes) at_top += v == top;
      if (at_top > 1) ++ties;
      ASSERT_LT(s, got.size()) << trial;
      EXPECT_EQ(got[s].start, start) << trial;
      EXPECT_EQ(got[s].true_stage_type, map_majority(stage_votes)) << trial;
      EXPECT_EQ(got[s].true_cluster, map_majority(cluster_votes)) << trial;
      ++s;
    }
    EXPECT_EQ(got.size(), s) << trial;
  }
  EXPECT_GT(ties, 100);
}

TEST(Trace, FrameSlicesAlignToFirstSample) {
  Trace t;
  // Starting at t=2000: slices are [2000,7000), [7000,12000) ...
  for (int i = 0; i < 6; ++i) t.add(sample(2000 + i * 1000, 10, 10));
  const auto slices = t.to_frame_slices(5000);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].start, 2000);
  EXPECT_EQ(slices[1].start, 7000);
}

TEST(Trace, FrameSlicesRejectBadSlice) {
  Trace t;
  t.add(sample(0, 1, 1));
  EXPECT_THROW(t.to_frame_slices(0), ContractError);
}

// Property: slicing any N-sample 1 Hz trace yields ceil(N/5) slices.
class SliceCountProp : public ::testing::TestWithParam<int> {};

TEST_P(SliceCountProp, CeilDivision) {
  const int n = GetParam();
  Trace t;
  for (int i = 0; i < n; ++i) t.add(sample(i * 1000, 1, 1));
  EXPECT_EQ(t.to_frame_slices(5000).size(),
            static_cast<std::size_t>((n + 4) / 5));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SliceCountProp,
                         ::testing::Values(1, 4, 5, 6, 23, 100));

}  // namespace
}  // namespace cocg::telemetry
