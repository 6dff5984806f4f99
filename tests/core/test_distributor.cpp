#include "core/distributor.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace cocg::core {
namespace {

const ResourceVector kCap{100, 100, 8192, 8192};

ResourceVector rv(double gpu, double cpu = 30) {
  return ResourceVector{cpu, gpu, 2000, 2000};
}

SessionOutlook hosted(double current_gpu, double expected_gpu,
                      bool loading = false, double cpu = 30) {
  SessionOutlook o;
  o.current_peak = rv(current_gpu, cpu);
  o.expected = rv(expected_gpu, cpu);
  o.in_loading = loading;
  return o;
}

CandidateOutlook candidate(double peak_gpu, double expected_gpu,
                           bool short_game = false,
                           double opening_cpu = 55) {
  CandidateOutlook c;
  c.opening = ResourceVector{opening_cpu, 7, 1500, 2000};
  c.peak = rv(peak_gpu);
  c.expected = rv(expected_gpu);
  c.short_game = short_game;
  c.expected_duration_ms = 600000;
  return c;
}

TEST(Distributor, EmptyServerAdmitsWhatFits) {
  Distributor d;
  EXPECT_TRUE(d.decide(kCap, {}, candidate(80, 50)).admit);
  EXPECT_FALSE(d.decide(kCap, {}, candidate(150, 50)).admit);
}

TEST(Distributor, ComplementaryExpectedFitAdmitted) {
  Distributor d;
  // Genshin-vs-DOTA2 shape: hosted expected 30, candidate expected 55.
  const auto dec = d.decide(kCap, {hosted(43, 30)}, candidate(80, 55));
  EXPECT_TRUE(dec.admit);
  EXPECT_EQ(dec.reason, "complementary fit");
}

TEST(Distributor, SustainedExpectedOverloadRejected) {
  Distributor d;
  // Two heavy titles whose expected demands sum past the limit.
  const auto dec = d.decide(kCap, {hosted(76, 60)}, candidate(80, 58));
  EXPECT_FALSE(dec.admit);
  EXPECT_EQ(dec.reason, "expected combined consumption exceeds limit");
}

TEST(Distributor, InstantaneousOverloadRejected) {
  Distributor d;
  // Hosted at a 90% GPU peak right now: even a cheap-opening candidate
  // must wait (its own loading GPU is tiny but the check includes it).
  CandidateOutlook c = candidate(50, 30);
  c.opening = ResourceVector{55, 10, 1500, 2000};
  const auto dec = d.decide(kCap, {hosted(90, 40)}, c);
  EXPECT_FALSE(dec.admit);
  EXPECT_EQ(dec.reason, "current combined consumption exceeds limit");
}

TEST(Distributor, LoadingCpuElasticityUnblocksAdmission) {
  Distributor d;
  // Hosted session is LOADING at 65% CPU; candidate opening is 55% CPU.
  // Raw sum (120%) would block, but loading CPU is elastic.
  SessionOutlook h = hosted(7, 30, /*loading=*/true);
  h.current_peak = ResourceVector{65, 7, 1500, 2000};
  const auto dec = d.decide(kCap, {h}, candidate(60, 40));
  EXPECT_TRUE(dec.admit);
}

TEST(Distributor, ShortGameGapInsertion) {
  Distributor d;
  // Long game is currently in a low stage (GPU 8, loading between rounds);
  // its long-run expected (60) + candidate expected (55) would fail the
  // expected rule, but the short game fits instantaneously with its whole
  // peak → §IV-C2 insertion.
  SessionOutlook h = hosted(8, 60, /*loading=*/true);
  const auto dec = d.decide(kCap, {h}, candidate(80, 55, /*short=*/true));
  EXPECT_TRUE(dec.admit);
  EXPECT_EQ(dec.reason, "short-game gap insertion");
}

TEST(Distributor, ShortGameNoRoomRejected) {
  Distributor d;
  // Hosted at its 62% round peak: 62+80 > 95 → no insertion window now.
  const auto dec = d.decide(kCap, {hosted(62, 60)},
                            candidate(80, 55, /*short=*/true));
  EXPECT_FALSE(dec.admit);
}

TEST(Distributor, ShortGameFastpathDisabled) {
  DistributorConfig cfg;
  cfg.short_game_fastpath = false;
  Distributor d(cfg);
  SessionOutlook h = hosted(8, 60, true);
  const auto dec = d.decide(kCap, {h}, candidate(80, 55, true));
  EXPECT_FALSE(dec.admit);  // falls through to the failing expected rule
}

TEST(Distributor, LongGameNeverUsesFastpath) {
  Distributor d;
  SessionOutlook h = hosted(8, 60, true);
  const auto dec = d.decide(kCap, {h}, candidate(80, 55, /*short=*/false));
  EXPECT_FALSE(dec.admit);
}

TEST(Distributor, MultipleHostedExpectedSummed) {
  Distributor d;
  const auto ok = d.decide(kCap, {hosted(30, 25), hosted(30, 25)},
                           candidate(40, 30));
  EXPECT_TRUE(ok.admit);  // 25+25+30 = 80 <= 90
  const auto no = d.decide(kCap, {hosted(30, 35), hosted(30, 35)},
                           candidate(40, 30));
  EXPECT_FALSE(no.admit);  // 35+35+30 = 100 > 90
}

TEST(Distributor, CapacityLimitApplied) {
  DistributorConfig cfg;
  cfg.capacity_limit = 0.5;
  Distributor d(cfg);
  const auto dec = d.decide(kCap, {hosted(30, 30)}, candidate(30, 25));
  EXPECT_FALSE(dec.admit);  // 55 expected > 50 under the tightened limit
}

TEST(Distributor, PaperPairDota2PlusDmc) {
  // Fig. 11's hard pair: expected ≈ 30 (DOTA2) + 58 (DMC) = 88 ≤ 95 —
  // CoCG admits although the peak sum (43 + 76) exceeds the server.
  Distributor d;
  const auto dec = d.decide(kCap, {hosted(43, 30, false, 40)},
                            candidate(76, 58));
  EXPECT_TRUE(dec.admit);
}

TEST(Distributor, PaperPairGenshinPlusDmcRejected) {
  // Two heavy always-on titles: expected 52 + 58 > 95 → reject.
  Distributor d;
  const auto dec = d.decide(kCap, {hosted(70, 58)}, candidate(78, 52));
  EXPECT_FALSE(dec.admit);
}

// Property: symmetric identical sessions are admitted exactly while
// 2 × expected ≤ the 90% admission limit.
class DistributorPairProp : public ::testing::TestWithParam<double> {};

TEST_P(DistributorPairProp, ExpectedSumThreshold) {
  const double g = GetParam();
  Distributor d;
  const auto dec = d.decide(kCap, {hosted(g, g)}, candidate(g, g));
  if (2 * g > 90.0) {
    EXPECT_FALSE(dec.admit) << g;
  } else {
    EXPECT_TRUE(dec.admit) << g;
  }
}

INSTANTIATE_TEST_SUITE_P(GpuLevels, DistributorPairProp,
                         ::testing::Values(30.0, 40.0, 44.0, 46.0, 60.0,
                                           80.0));

}  // namespace
}  // namespace cocg::core
