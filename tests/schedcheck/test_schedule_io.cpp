#include "schedcheck/schedule.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace cocg::schedcheck {
namespace {

Schedule sample() {
  Schedule s;
  s.meta = {{"scenario", "1"}, {"shards", "2"}};
  s.streams.resize(3);
  s.streams[0] = {
      {Point::kRouterChoice, 1000, 0, 4, 2},
      {Point::kExecutorSync, 5000, 1, 2, 1},
  };
  s.streams[1] = {
      {Point::kAdmission, 1500, 0, 2, 1},
      {Point::kRegulatorVictim, 2500, 1, 3, 0},
      {Point::kRegulatorHold, 2500, 2, 2, 1},
  };
  s.streams[2] = {
      {Point::kMigrationTrigger, 60000, 0, 2, 1},
  };
  return s;
}

TEST(ScheduleIo, TextRoundTrip) {
  const Schedule s = sample();
  const std::string text = schedule_text(s);
  std::istringstream is(text);
  const Schedule back = read_schedule(is);
  EXPECT_EQ(s, back);
  EXPECT_EQ(back.num_shards(), 2);
  EXPECT_EQ(back.total_records(), 6u);
  // Canonical form: serializing again yields the same bytes.
  EXPECT_EQ(schedule_text(back), text);
}

TEST(ScheduleIo, FileRoundTrip) {
  const Schedule s = sample();
  const std::string path =
      ::testing::TempDir() + "/schedcheck_roundtrip.sched";
  save_schedule(s, path);
  EXPECT_EQ(load_schedule(path), s);
  std::remove(path.c_str());
}

TEST(ScheduleIo, MetaHelpers) {
  Schedule s;
  EXPECT_EQ(s.meta_value("seed"), "");
  s.set_meta("seed", "42");
  s.set_meta("runner", "lockstep");
  EXPECT_EQ(s.meta_value("seed"), "42");
  s.set_meta("seed", "7");  // replaces, never duplicates
  EXPECT_EQ(s.meta_value("seed"), "7");
  EXPECT_EQ(s.meta.size(), 2u);
}

TEST(ScheduleIo, RejectsWrongMagic) {
  std::istringstream is("cocg-traffic-v1\n");
  EXPECT_THROW(read_schedule(is), std::runtime_error);
}

TEST(ScheduleIo, RejectsForeignPointTaxonomy) {
  // A schedule recorded by a build with different point names must fail
  // at parse time, not silently force the wrong decisions.
  std::string text = schedule_text(sample());
  const auto pos = text.find("router_choice");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("router_choice").size(), "router_pick__");
  std::istringstream is(text);
  EXPECT_THROW(read_schedule(is), std::runtime_error);
}

TEST(ScheduleIo, RejectsNonIncreasingSeq) {
  Schedule s = sample();
  s.streams[1][2].seq = 1;  // duplicates the previous record's seq
  EXPECT_THROW(schedule_text(s), std::runtime_error);
}

TEST(ScheduleIo, RejectsTruncatedFile) {
  std::string text = schedule_text(sample());
  text.resize(text.rfind("end"));
  std::istringstream is(text);
  EXPECT_THROW(read_schedule(is), std::runtime_error);
}

/// `sample()`'s text with the line `line` replaced by `replacement` must
/// fail naming the line where the records run out, with a runtime_error,
/// not std::bad_alloc.
void expect_oversized_count_rejected(const std::string& line,
                                     const std::string& replacement,
                                     const std::string& want) {
  std::string text = schedule_text(sample());
  const auto pos = text.find("\n" + line + "\n");
  ASSERT_NE(pos, std::string::npos) << line;
  text.replace(pos + 1, line.size(), replacement);
  std::istringstream is(text);
  try {
    read_schedule(is);
    ADD_FAILURE() << replacement << " accepted";
  } catch (const std::runtime_error& e) {
    const std::string err = e.what();
    EXPECT_NE(err.find("schedule line"), std::string::npos) << err;
    EXPECT_NE(err.find(want), std::string::npos) << err;
  }
}

// A count read from a schedule sizes no allocation.
TEST(ScheduleIo, OversizedStreamCountRejected) {
  expect_oversized_count_rejected("streams 3", "streams 100000000000000",
                                  "expected 'stream ', got 'end'");
}

TEST(ScheduleIo, OversizedRecordCountRejected) {
  expect_oversized_count_rejected("stream 0 2", "stream 0 100000000000000",
                                  "expected 'r ', got 'stream 1 3'");
}

TEST(ScheduleIo, PointNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    const Point p = static_cast<Point>(i);
    const auto parsed = parse_point(point_name(p));
    ASSERT_TRUE(parsed.has_value()) << point_name(p);
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parse_point("bogus").has_value());
}

}  // namespace
}  // namespace cocg::schedcheck
