#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"

namespace cocg::sim {
namespace {

TEST(Engine, ClockStartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, ScheduleInAdvancesClock) {
  Engine e;
  TimeMs seen = -1;
  e.schedule_in(100, [&] { seen = e.now(); });
  e.run_all();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, ScheduleAtAbsolute) {
  Engine e;
  e.schedule_at(50, [] {});
  EXPECT_EQ(e.run_all(), 50);
}

TEST(Engine, RejectsPastAndNegative) {
  Engine e;
  e.schedule_in(100, [] {});
  e.run_all();
  EXPECT_THROW(e.schedule_at(50, [] {}), ContractError);
  EXPECT_THROW(e.schedule_in(-1, [] {}), ContractError);
}

TEST(Engine, RunUntilStopsAtHorizonInclusive) {
  Engine e;
  std::vector<TimeMs> fired;
  for (TimeMs t : {10, 20, 30, 40}) {
    e.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  e.run_until(30);
  EXPECT_EQ(fired, (std::vector<TimeMs>{10, 20, 30}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.run_until(500);
  EXPECT_EQ(e.now(), 500);
}

TEST(Engine, StopRequestHaltsLoop) {
  Engine e;
  int count = 0;
  e.schedule_in(1, [&] {
    ++count;
    e.stop();
  });
  e.schedule_in(2, [&] { ++count; });
  e.run_all();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, PeriodicFiresAtPeriod) {
  Engine e;
  std::vector<TimeMs> fired;
  e.schedule_periodic(10, 10, [&](TimeMs t) {
    fired.push_back(t);
    return fired.size() < 3;
  });
  e.run_all();
  EXPECT_EQ(fired, (std::vector<TimeMs>{10, 20, 30}));
}

TEST(Engine, PeriodicStopHandle) {
  Engine e;
  int count = 0;
  auto task = e.schedule_periodic(5, 5, [&](TimeMs) {
    ++count;
    return true;
  });
  e.run_until(20);
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(task.active());
  task.stop();
  EXPECT_FALSE(task.active());
  e.run_until(100);
  EXPECT_EQ(count, 4);  // no further firings
}

TEST(Engine, PeriodicStopIdempotent) {
  Engine e;
  auto task = e.schedule_periodic(5, 5, [](TimeMs) { return true; });
  task.stop();
  EXPECT_NO_THROW(task.stop());
  PeriodicTask empty;
  EXPECT_NO_THROW(empty.stop());
  EXPECT_FALSE(empty.active());
}

TEST(Engine, PeriodicReturningFalseDeactivates) {
  Engine e;
  auto task = e.schedule_periodic(1, 1, [](TimeMs) { return false; });
  e.run_all();
  EXPECT_FALSE(task.active());
}

TEST(Engine, PeriodicFirstDelayZero) {
  Engine e;
  std::vector<TimeMs> fired;
  e.schedule_periodic(0, 7, [&](TimeMs t) {
    fired.push_back(t);
    return fired.size() < 2;
  });
  e.run_all();
  EXPECT_EQ(fired, (std::vector<TimeMs>{0, 7}));
}

TEST(Engine, CancelOneShot) {
  Engine e;
  bool ran = false;
  auto h = e.schedule_in(10, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(h));
  e.run_until(100);
  EXPECT_FALSE(ran);
}

TEST(Engine, EventsProcessedCounter) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_in(i, [] {});
  e.run_all();
  EXPECT_EQ(e.events_processed(), 5u);
}

TEST(Engine, InterleavedPeriodicsDeterministic) {
  Engine e;
  std::vector<std::pair<TimeMs, char>> log;
  e.schedule_periodic(2, 2, [&](TimeMs t) {
    log.push_back({t, 'a'});
    return t < 8;
  });
  e.schedule_periodic(3, 3, [&](TimeMs t) {
    log.push_back({t, 'b'});
    return t < 9;
  });
  e.run_all();
  // At t=6 both fire; 'b' re-armed earlier (at t=3 vs t=4) so FIFO places
  // it first.
  const std::vector<std::pair<TimeMs, char>> expect{
      {2, 'a'}, {3, 'b'}, {4, 'a'}, {6, 'b'}, {6, 'a'},
      {8, 'a'}, {9, 'b'}};
  EXPECT_EQ(log, expect);
}

}  // namespace
}  // namespace cocg::sim
