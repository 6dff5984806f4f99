#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <set>
#include <vector>

namespace cocg {
namespace {

TEST(SplitMix64, KnownFirstValueNonZero) {
  SplitMix64 sm(0);
  // splitmix64(0) first output is a fixed, nonzero constant.
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  // All four values should appear.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform_int(5, 4), ContractError);
}

TEST(Rng, UniformIntApproxUniform) {
  Rng rng(12);
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);  // within 10% of expectation
  }
}

// The sampler tests below share one sample of 10^6 standard normals at a
// fixed seed, so each bound is a fixed fact about that sample, not a flaky
// probability.
constexpr std::size_t kSample = 1000000;

const std::vector<double>& normal_sample() {
  static const std::vector<double> sample = [] {
    Rng rng(2024);
    std::vector<double> v(kSample);
    for (double& x : v) x = rng.normal();
    return v;
  }();
  return sample;
}

double phi(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

TEST(Rng, NormalMoments) {
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (const double x : normal_sample()) {
    m1 += x;
    m2 += x * x;
    m3 += x * x * x;
    m4 += x * x * x * x;
  }
  const double n = static_cast<double>(kSample);
  // The k-th raw moment's standard error is sqrt((E[x^2k] - E[x^k]^2) / n):
  // 0.001, 0.0014, 0.0039 and 0.0098 at n = 10^6. Each bound is four.
  EXPECT_NEAR(m1 / n, 0.0, 0.004);
  EXPECT_NEAR(m2 / n, 1.0, 0.006);
  EXPECT_NEAR(m3 / n, 0.0, 0.016);
  EXPECT_NEAR(m4 / n, 3.0, 0.04);
}

TEST(Rng, NormalKolmogorovSmirnovAgainstPhi) {
  std::vector<double> v = normal_sample();
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double d = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double p = phi(v[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - p,
                  p - static_cast<double>(i) / n});
  }
  // sqrt(n) * D below 1.36 is the Kolmogorov distribution's 5% critical
  // value: a sampler off Phi anywhere by more than about 0.0014 fails.
  EXPECT_LT(std::sqrt(n) * d, 1.36);
}

TEST(Rng, NormalTailMassBeyondRAndBeyondThree) {
  const double r = ziggurat::kX[1];
  std::size_t beyond_r = 0, beyond_3 = 0;
  for (const double x : normal_sample()) {
    if (std::fabs(x) > r) ++beyond_r;
    if (std::fabs(x) > 3.0) ++beyond_3;
  }
  const double n = static_cast<double>(kSample);
  // Expected counts are n * P(|Z| > t); the bounds are four binomial
  // standard deviations.
  const auto expect_mass = [n](std::size_t count, double t) {
    const double p = std::erfc(t / std::numbers::sqrt2);
    EXPECT_NEAR(static_cast<double>(count), n * p, 4.0 * std::sqrt(n * p))
        << "beyond " << t;
  };
  expect_mass(beyond_r, r);
  expect_mass(beyond_3, 3.0);
}

TEST(Rng, NormalSignIsSymmetric) {
  std::size_t positive = 0, positive_beyond_2 = 0, beyond_2 = 0;
  for (const double x : normal_sample()) {
    if (x > 0.0) ++positive;
    if (std::fabs(x) > 2.0) {
      ++beyond_2;
      if (x > 0.0) ++positive_beyond_2;
    }
  }
  // Four binomial standard deviations of a fair sign.
  const auto expect_half = [](std::size_t hits, std::size_t n) {
    const double m = static_cast<double>(n);
    EXPECT_NEAR(static_cast<double>(hits), m / 2, 2.0 * std::sqrt(m));
  };
  expect_half(positive, kSample);
  expect_half(positive_beyond_2, beyond_2);
}

// A bit source that replays scripted words and uniforms, to drive the
// sampler down a chosen branch.
struct ScriptedBits {
  std::vector<std::uint64_t> words;
  std::vector<double> uniforms;
  std::size_t next_word = 0, next_uniform = 0;

  std::uint64_t next_u64() { return words.at(next_word++); }
  double uniform() { return uniforms.at(next_uniform++); }
};

// The word whose top 53 bits give the signed uniform u and whose low 7 bits
// give the layer.
std::uint64_t word(double u, std::uint64_t layer) {
  const auto k = static_cast<std::uint64_t>((u + 1.0) * 0x1.0p52);
  return (k << 11) | layer;
}

TEST(Rng, ZigguratRectangleReturnsScaledUniform) {
  ScriptedBits bits{{word(0.25, 5)}, {}};
  EXPECT_EQ(ziggurat::normal(bits), 0.25 * ziggurat::kX[5]);
  EXPECT_EQ(bits.next_uniform, 0u);
}

TEST(Rng, ZigguratBaseLayerOutsideItsRectangleDrawsTheTail) {
  const double r = ziggurat::kX[1];
  ASSERT_LT(ziggurat::kR[0], 0.99);
  // The tail accepts x = log(1 - 0.5) / R when -2 log(1 - 0.5) >= x².
  ScriptedBits up{{word(0.99, 0)}, {0.5, 0.5}};
  const double hi = ziggurat::normal(up);
  EXPECT_EQ(hi, r - std::log(0.5) / r);
  EXPECT_GT(hi, r);
  ScriptedBits down{{word(-0.99, 0)}, {0.5, 0.5}};
  EXPECT_EQ(ziggurat::normal(down), -hi);
  // A tail pair that fails the test (y near 0) is redrawn.
  ScriptedBits retry{{word(0.99, 0)}, {0.999, 0.0, 0.5, 0.5}};
  EXPECT_EQ(ziggurat::normal(retry), hi);
  EXPECT_EQ(retry.next_uniform, 4u);
}

TEST(Rng, ZigguratWedgeAcceptsUnderTheCurveAndRedrawsAbove) {
  // The top layer's rectangle is empty (kX[128] = 0), so every draw there
  // takes the wedge test, which reads kX[128].
  ASSERT_EQ(ziggurat::kR[127], 0.0);
  const double x = 0.5 * ziggurat::kX[127];
  ScriptedBits accept{{word(0.5, 127)}, {0.999}};
  EXPECT_EQ(ziggurat::normal(accept), x);
  // A uniform of 0 puts the point at the layer's top, above f(x): the draw
  // is rejected and the next word decides.
  ScriptedBits reject{{word(0.5, 127), word(0.25, 5)}, {0.0}};
  EXPECT_EQ(ziggurat::normal(reject), 0.25 * ziggurat::kX[5]);
  EXPECT_EQ(reject.next_word, 2u);
  // A middle layer, just outside its rectangle.
  const double u = std::ceil(ziggurat::kR[64] * 1024 + 1) / 1024;
  ScriptedBits mid{{word(u, 64)}, {0.999}};
  EXPECT_EQ(ziggurat::normal(mid), u * ziggurat::kX[64]);
}

// Counts what each draw consumes, which tells its branch: a rectangle hit
// takes one word and no uniform.
struct CountingBits {
  Rng rng{7};
  std::size_t words = 0, uniforms = 0;

  std::uint64_t next_u64() {
    ++words;
    return rng.next_u64();
  }
  double uniform() {
    ++uniforms;
    return rng.uniform();
  }
};

TEST(Rng, ZigguratBranchSharesAtAFixedSeed) {
  CountingBits bits;
  std::size_t rectangle = 0, tail = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t words = bits.words, uniforms = bits.uniforms;
    const double x = ziggurat::normal(bits);
    if (bits.words == words + 1 && bits.uniforms == uniforms) ++rectangle;
    if (std::fabs(x) > ziggurat::kX[1]) ++tail;
  }
  const double share = static_cast<double>(rectangle) / n;
  EXPECT_GT(share, 0.965);
  EXPECT_LT(share, 0.98);
  EXPECT_GT(tail, 0u);
  EXPECT_GT(bits.uniforms, 0u);
}

TEST(Rng, ZigguratLayersHaveEqualArea) {
  const auto& x = ziggurat::kX;
  const auto f = [](double v) { return std::exp(-0.5 * v * v); };
  // The base layer: the strip under f(R) plus the tail beyond R.
  const double r = x[1];
  const double v = r * f(r) + std::sqrt(std::numbers::pi / 2) *
                                  std::erfc(r / std::numbers::sqrt2);
  EXPECT_NEAR(x[0] * f(r), v, 1e-12 * v);
  for (std::size_t i = 1; i < ziggurat::kLayers; ++i) {
    EXPECT_NEAR(x[i] * (f(x[i + 1]) - f(x[i])), v, 1e-12 * v) << "layer " << i;
    EXPECT_LT(x[i + 1], x[i]);
  }
  EXPECT_EQ(x[ziggurat::kLayers], 0.0);
  for (std::size_t i = 0; i < ziggurat::kLayers; ++i) {
    EXPECT_DOUBLE_EQ(ziggurat::kR[i], x[i + 1] / x[i]) << "layer " << i;
  }
}

// Pins the normal stream: any change to the sampler or its tables fails
// here before it fails a downstream digest. Re-pin only on purpose.
TEST(Rng, NormalStreamAtSeedOneMatchesDigest) {
  Rng rng(1);
  std::uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 10000; ++i) {
    h ^= std::bit_cast<std::uint64_t>(rng.normal());
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 7421239492067923170ull);
}

TEST(Rng, NormalShifted) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(15);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractError);
}

TEST(Rng, ExponentialMean) {
  Rng rng(16);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(18);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::array<int, 3> counts{};
  const int n = 90000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index({1.0, 2.0, 6.0})];
  }
  EXPECT_NEAR(counts[0], n / 9.0, n * 0.01);
  EXPECT_NEAR(counts[1], 2 * n / 9.0, n * 0.01);
  EXPECT_NEAR(counts[2], 6 * n / 9.0, n * 0.015);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(20);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(rng.weighted_index({1.0, 0.0, 1.0}), 1u);
  }
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(21);
  EXPECT_THROW(rng.weighted_index({}), ContractError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), ContractError);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), ContractError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(22);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v.begin(), v.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ShuffleChangesOrder) {
  Rng rng(23);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.shuffle(v.begin(), v.end());
  EXPECT_NE(v, orig);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(24);
  Rng child = parent.fork();
  // Child is deterministic given the parent's state.
  Rng parent2(24);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

// Property: every distribution stays in range across seeds.
class RngSeedProp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedProp, BoundsHoldForAllSeeds) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(), 1.0);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedProp,
                         ::testing::Values(0ULL, 1ULL, 42ULL,
                                           0xdeadbeefULL,
                                           ~0ULL));

}  // namespace
}  // namespace cocg
