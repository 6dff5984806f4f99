// Live-session telemetry: the fixed SampleWindow ring, against the offline
// Trace that keeps every sample.
#include <gtest/gtest.h>

#include "common/check.h"
#include "telemetry/sample_window.h"
#include "telemetry/trace.h"

namespace cocg::telemetry {
namespace {

constexpr std::size_t kCap = SampleWindow::kCapacity;

MetricSample sample_at(TimeMs t) {
  MetricSample s;
  s.t = t;
  s.usage = {1.0, 2.0, 3.0, static_cast<double>(t)};
  s.fps = 60.0;
  return s;
}

TEST(TraceWindow, UnboundedByDefault) {
  Trace tr;
  for (TimeMs t = 0; t < 5000; ++t) tr.add(sample_at(t));
  EXPECT_EQ(tr.size(), 5000u);
  EXPECT_EQ(tr.start_time(), 0);
  EXPECT_EQ(tr.end_time(), 4999);
}

TEST(SampleWindow, EmptyWindowHoldsNothing) {
  SampleWindow w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.first(), 0u);
  EXPECT_THROW(w.back(), ContractError);
  EXPECT_THROW(w.at(0), ContractError);
}

TEST(SampleWindow, BeforeWrapEverySampleIsRetained) {
  SampleWindow w;
  for (TimeMs t = 0; t < static_cast<TimeMs>(kCap); ++t) w.add(sample_at(t));
  EXPECT_EQ(w.count(), kCap);
  EXPECT_EQ(w.first(), 0u);
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(w.at(i).t, static_cast<TimeMs>(i));
  }
  EXPECT_EQ(w.back().t, static_cast<TimeMs>(kCap - 1));
}

TEST(SampleWindow, WrapKeepsNewestSamples) {
  SampleWindow w;
  constexpr std::size_t kAdds = 1000;  // wraps the ring 31 times
  for (TimeMs t = 0; t < static_cast<TimeMs>(kAdds); ++t) {
    w.add(sample_at(t));
    // The count runs on past the capacity; back() is always the newest.
    EXPECT_EQ(w.count(), static_cast<std::size_t>(t) + 1);
    EXPECT_EQ(w.back().t, t);
  }
  EXPECT_EQ(w.first(), kAdds - kCap);
  // Absolute sample numbers map to their own samples, oldest to newest.
  for (std::size_t i = w.first(); i < w.count(); ++i) {
    EXPECT_EQ(w.at(i).t, static_cast<TimeMs>(i));
    EXPECT_EQ(w.at(i).usage.at(3), static_cast<double>(i));
  }
}

TEST(SampleWindow, AtRejectsEvictedAndFutureNumbers) {
  SampleWindow w;
  for (TimeMs t = 0; t < 100; ++t) w.add(sample_at(t));
  EXPECT_NO_THROW(w.at(100 - kCap));
  EXPECT_NO_THROW(w.at(99));
  EXPECT_THROW(w.at(100 - kCap - 1), ContractError);  // evicted
  EXPECT_THROW(w.at(0), ContractError);
  EXPECT_THROW(w.at(100), ContractError);  // not yet added
  EXPECT_THROW(w.at(100 + kCap), ContractError);
}

TEST(SampleWindow, TimestampsMustNotDecrease) {
  SampleWindow w;
  w.add(sample_at(5));
  w.add(sample_at(5));  // equal is fine
  EXPECT_THROW(w.add(sample_at(4)), ContractError);
  EXPECT_EQ(w.count(), 2u);
  // The check compares against the newest sample across the wrap too.
  for (TimeMs t = 6; t < 6 + static_cast<TimeMs>(kCap); ++t) {
    w.add(sample_at(t));
  }
  EXPECT_THROW(w.add(sample_at(w.back().t - 1)), ContractError);
  EXPECT_NO_THROW(w.add(sample_at(w.back().t)));
}

}  // namespace
}  // namespace cocg::telemetry
