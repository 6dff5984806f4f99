// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulator (user influence, measurement
// noise, arrival processes, ML subsampling) draws from an explicitly seeded
// Rng so that experiments are bit-reproducible. We implement xoshiro256**
// seeded via splitmix64 — the standard recommendation of its authors — and
// expose the distributions the simulator needs without pulling in <random>'s
// implementation-defined (hence non-portable) distribution outputs.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace cocg {

/// splitmix64 — used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The 128-layer normal ziggurat (Marsaglia & Tsang, "The Ziggurat Method
/// for Generating Random Variables", JSS 2000), in Doornik's form ("An
/// Improved Ziggurat Method to Generate Normal Random Samples", 2005).
///
/// With f(x) = exp(-x²/2), 128 layers of equal area V cover the half
/// density. Layer i ≥ 1 is the box of width kX[i] between the heights
/// f(kX[i]) and f(kX[i + 1]), and the top layer's kX[128] is 0. The base
/// layer is the box of width R = kX[1] ≈ 3.4426198559 under f(R) plus the
/// tail beyond R; kX[0] = V / f(R) is the width of a box of that area.
/// kR[i] = kX[i + 1] / kX[i] is the share of layer i's width that lies
/// wholly under f. R was solved to 60 digits so that the top layer closes.
/// The tables are literals, so no draw depends on libm calls at start-up
/// and every host draws the same bits.
namespace ziggurat {

inline constexpr std::size_t kLayers = 128;

inline constexpr double kX[kLayers + 1] = {
    0x1.db4668fe7d167p+1, 0x1.b8a7c476d1741p+1, 0x1.9c8e0c7c7f35ep+1,
    0x1.8aa73e440e862p+1, 0x1.7d45eb36e9ff4p+1, 0x1.7279dd4ac2679p+1,
    0x1.695c2be68d3e4p+1, 0x1.616dff7c8dab3p+1, 0x1.5a61edf7e73f4p+1,
    0x1.540520129e8c8p+1, 0x1.4e3456b0e1da8p+1, 0x1.48d61806d430cp+1,
    0x1.43d75b60bac8dp+1, 0x1.3f29848d395fep+1, 0x1.3ac11b8e1e839p+1,
    0x1.3694f3a3721bap+1, 0x1.329d9725e1358p+1, 0x1.2ed4df8097554p+1,
    0x1.2b35aa5ebcda5p+1, 0x1.27bba2b5d9b7dp+1, 0x1.246317a6b3231p+1,
    0x1.2128dd36bbd01p+1, 0x1.1e0a342cee675p+1, 0x1.1b04b731f48d4p+1,
    0x1.18164be0bf8c9p+1, 0x1.153d16d455057p+1, 0x1.1277720181096p+1,
    0x1.0fc3e4d95cda5p+1, 0x1.0d211dd288ac4p+1, 0x1.0a8ded0ec1159p+1,
    0x1.08093fe3e1aa9p+1, 0x1.05921d1c4b0b9p+1, 0x1.0327a1cc4a836p+1,
    0x1.00c8fea16f933p+1, 0x1.fceaeb2ca0ee2p+0, 0x1.f858aff317ac8p+0,
    0x1.f3da09745b605p+0, 0x1.ef6dcddc7807dp+0, 0x1.eb12e914817afp+0,
    0x1.e6c85a8495b0dp+0, 0x1.e28d331c61c36p+0, 0x1.de609397db2b3p+0,
    0x1.da41aaf794b3cp+0, 0x1.d62fb5257b279p+0, 0x1.d229f9bfe95c7p+0,
    0x1.ce2fcb05f3115p+0, 0x1.ca4084e08c207p+0, 0x1.c65b8c04d5d84p+0,
    0x1.c2804d2c6531dp+0, 0x1.beae3c60c7179p+0, 0x1.bae4d457e8092p+0,
    0x1.b72395df55593p+0, 0x1.b36a075492a98p+0, 0x1.afb7b428f83acp+0,
    0x1.ac0c2c6fbfe60p+0, 0x1.a8670475107fbp+0, 0x1.a4c7d45cfb2a5p+0,
    0x1.a12e37c97caa0p+0, 0x1.9d99cd86aeea8p+0, 0x1.9a0a373c6d3ccp+0,
    0x1.967f1924c0e62p+0, 0x1.92f819c67bdfdp+0, 0x1.8f74e1b375764p+0,
    0x1.8bf51b49e8281p+0, 0x1.8878727879e86p+0, 0x1.84fe948480027p+0,
    0x1.81872fd216669p+0, 0x1.7e11f3ada7506p+0, 0x1.7a9e9016840d7p+0,
    0x1.772cb58a3242ap+0, 0x1.73bc14d01277fp+0, 0x1.704c5ec504e8fp+0,
    0x1.6cdd4426b0a02p+0, 0x1.696e755e0eb23p+0, 0x1.65ffa248d7f43p+0,
    0x1.62907a016eac0p+0, 0x1.5f20aaa4d7638p+0, 0x1.5bafe1164c044p+0,
    0x1.583dc8bfea848p+0, 0x1.54ca0b4ff476ap+0, 0x1.5154507206658p+0,
    0x1.4ddc3d839cb58p+0, 0x1.4a6175432745fp+0, 0x1.46e39778d4ba1p+0,
    0x1.4362409821672p+0, 0x1.3fdd0959138fbp+0, 0x1.3c538647e5b53p+0,
    0x1.38c54749af146p+0, 0x1.3531d71460289p+0, 0x1.3198ba9823477p+0,
    0x1.2df97057dd75fp+0, 0x1.2a536fae26375p+0, 0x1.26a627fb9231dp+0,
    0x1.22f0ffba96ce9p+0, 0x1.1f33537495bfap+0, 0x1.1b6c7492bde7ap+0,
    0x1.179ba80458345p+0, 0x1.13c024b2bbdffp+0, 0x1.0fd911b972d18p+0,
    0x1.0be58456f2afcp+0, 0x1.07e47d879726ep+0, 0x1.03d4e7390f210p+0,
    0x1.ff6b21ffe30ecp-1, 0x1.f70a5866ad189p-1, 0x1.ee848e954b85cp-1,
    0x1.e5d6909f34423p-1, 0x1.dcfccc51a7480p-1, 0x1.d3f340dd86c6bp-1,
    0x1.cab56ac6833a5p-1, 0x1.c13e2b012d149p-1, 0x1.b787a7c4f44a4p-1,
    0x1.ad8b25067d385p-1, 0x1.a340d1bad0391p-1, 0x1.989f85c72c985p-1,
    0x1.8d9c6a9d0cf67p-1, 0x1.822a858ac5ecap-1, 0x1.763a1600c1764p-1,
    0x1.69b7b213c3f64p-1, 0x1.5c8afdbecef6ep-1, 0x1.4e94c08bd4d78p-1,
    0x1.3fabee18d682fp-1, 0x1.2f98d6bb0e73ap-1, 0x1.1e0ce6b54ec53p-1,
    0x1.0a936da5942d2p-1, 0x1.e8e576e3830fap-2, 0x1.b4c8fecd63b02p-2,
    0x1.73949183add9dp-2, 0x1.16db47dfb32bdp-2, 0.0,
};

inline constexpr double kR[kLayers] = {
    0x1.dab48848d390dp-1, 0x1.df5993967cf54p-1, 0x1.e9c885d9a63cap-1,
    0x1.eea42f70cec68p-1, 0x1.f1803c6a0760fp-1, 0x1.f366d2afaec62p-1,
    0x1.f4c3825de9d6ep-1, 0x1.f5ca83ef26c69p-1, 0x1.f69868793c38ap-1,
    0x1.f73e31c8987c2p-1, 0x1.f7c6a977e2ecep-1, 0x1.f838ffd4ebf60p-1,
    0x1.f89a30bcaa637p-1, 0x1.f8edcde8cdc93p-1, 0x1.f93677b627cf9p-1,
    0x1.f97628687bf8cp-1, 0x1.f9ae64ccb1debp-1, 0x1.f9e05ca2efc4bp-1,
    0x1.fa0d00cfbb554p-1, 0x1.fa3512e9cb7d9p-1, 0x1.fa59305b355a7p-1,
    0x1.fa79da7e0032ap-1, 0x1.fa977c9ec1259p-1, 0x1.fab27081a255dp-1,
    0x1.facb01d436577p-1, 0x1.fae170d5cac3fp-1, 0x1.faf5f46a24778p-1,
    0x1.fb08bbbbc722fp-1, 0x1.fb19ef88b627ap-1, 0x1.fb29b32d76f6fp-1,
    0x1.fb38257d09466p-1, 0x1.fb456170e1e7ap-1, 0x1.fb517eb94bbb4p-1,
    0x1.fb5c92349c6afp-1, 0x1.fb66ae523532cp-1, 0x1.fb6fe3652f6ffp-1,
    0x1.fb783fe9bff14p-1, 0x1.fb7fd0bfb9573p-1, 0x1.fb86a15c186a5p-1,
    0x1.fb8cbbf323e62p-1, 0x1.fb92299c5d006p-1, 0x1.fb96f27141f07p-1,
    0x1.fb9b1da7b4212p-1, 0x1.fb9eb1a8adc18p-1, 0x1.fba1b423d3f0ap-1,
    0x1.fba42a205a285p-1, 0x1.fba6180b9794fp-1, 0x1.fba781c59eba9p-1,
    0x1.fba86aac1a69ap-1, 0x1.fba8d5a3a7f97p-1, 0x1.fba8c51fdd95dp-1,
    0x1.fba83b2a23c42p-1, 0x1.fba7396782d6fp-1, 0x1.fba5c11d7f93cp-1,
    0x1.fba3d3361daa6p-1, 0x1.fba170431a9d2p-1, 0x1.fb9e988070415p-1,
    0x1.fb9b4bd62aef1p-1, 0x1.fb9789d99cc11p-1, 0x1.fb9351cdf4ccep-1,
    0x1.fb8ea2a43ef9cp-1, 0x1.fb897afacefabp-1, 0x1.fb83d91c16e94p-1,
    0x1.fb7dbafce8019p-1, 0x1.fb771e3a1a031p-1, 0x1.fb70001593b2ep-1,
    0x1.fb685d72acdfep-1, 0x1.fb6032d1e00b0p-1, 0x1.fb577c4bbf69bp-1,
    0x1.fb4e358b1e516p-1, 0x1.fb4459c65d27bp-1, 0x1.fb39e3b7c2a5cp-1,
    0x1.fb2ecd94c9785p-1, 0x1.fb23110445012p-1, 0x1.fb16a7133b08dp-1,
    0x1.fb0988284a7abp-1, 0x1.fafbabf570985p-1, 0x1.faed0967f643ap-1,
    0x1.fadd969645d11p-1, 0x1.facd48ab5ef91p-1, 0x1.fabc13cf91a07p-1,
    0x1.faa9eb0e18d8fp-1, 0x1.fa96c0371d218p-1, 0x1.fa8283bd8ee07p-1,
    0x1.fa6d24902f7a6p-1, 0x1.fa568fecff2ddp-1, 0x1.fa3eb12e1ea49p-1,
    0x1.fa25718f033acp-1, 0x1.fa0ab7e8a219ap-1, 0x1.f9ee6862ed966p-1,
    0x1.f9d06419a61a4p-1, 0x1.f9b088b20f62ep-1, 0x1.f98eafde8dd80p-1,
    0x1.f96aaecc7db9bp-1, 0x1.f9445577b3f0cp-1, 0x1.f91b6dddf7893p-1,
    0x1.f8efbb0b4f4eep-1, 0x1.f8c0f7f61d64ep-1, 0x1.f88ed61f8d974p-1,
    0x1.f858fbe99e9acp-1, 0x1.f81f028fc1ac7p-1, 0x1.f7e073a947e8ep-1,
    0x1.f79cc61505872p-1, 0x1.f7535a22e2901p-1, 0x1.f70374c143baep-1,
    0x1.f6ac395f773dcp-1, 0x1.f64ca218da0e3p-1, 0x1.f5e37591f4ff3p-1,
    0x1.f56f39b2ae524p-1, 0x1.f4ee220c2e0d2p-1, 0x1.f45df82ccfe24p-1,
    0x1.f3bbfb4b650dap-1, 0x1.f304b35b5a319p-1, 0x1.f233b16d72b29p-1,
    0x1.f143339d794f1p-1, 0x1.f02b9c88c2598p-1, 0x1.eee2a31865927p-1,
    0x1.ed5a0a98b5963p-1, 0x1.eb7d8a7cc52d5p-1, 0x1.e92f39746190fp-1,
    0x1.e641170f432f5p-1, 0x1.e26896f5e9c86p-1, 0x1.dd2487adb1d47p-1,
    0x1.d5801474081a8p-1, 0x1.c96d1a87fdad4p-1, 0x1.b3911e9b032d5p-1,
    0x1.803c6d4e35613p-1, 0.0,
};

/// The tail beyond R (Marsaglia's exponential method), on the given side.
template <class Gen>
double tail(Gen& gen, bool negative) {
  const double r = kX[1];
  double x, y;
  do {
    x = std::log(1.0 - gen.uniform()) / r;
    y = std::log(1.0 - gen.uniform());
  } while (-2.0 * y < x * x);
  return negative ? x - r : r - x;
}

/// One standard normal from `gen`'s next_u64() and uniform(). One 64-bit
/// word gives the layer (low 7 bits) and a signed uniform u in [-1, 1) (top
/// 53 bits). About 97% of draws land in a layer's rectangle and cost one
/// compare and a multiply; the rest take the wedge test (one more uniform)
/// or, from the base layer, the tail.
template <class Gen>
double normal(Gen& gen) {
  for (;;) {
    const std::uint64_t b = gen.next_u64();
    const std::size_t i = b & (kLayers - 1);
    const double u = static_cast<double>(b >> 11) * 0x1.0p-52 - 1.0;
    if (std::fabs(u) < kR[i]) [[likely]] return u * kX[i];
    if (i == 0) return tail(gen, u < 0.0);
    // Wedge: a height uniform in [f(kX[i]), f(kX[i + 1])], in units of
    // f(x), must fall under f(x).
    const double x = u * kX[i];
    const double f0 = std::exp(-0.5 * (kX[i] * kX[i] - x * x));
    const double f1 = std::exp(-0.5 * (kX[i + 1] * kX[i + 1] - x * x));
    if (f1 + gen.uniform() * (f0 - f1) < 1.0) return x;
  }
}

}  // namespace ziggurat

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed'c0c6'2024ULL);

  /// UniformRandomBitGenerator interface (usable with std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  // The draw primitives below are defined inline: they run per session per
  // simulated tick, where the call overhead of an out-of-line definition is
  // measurable against the few instructions of work.

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 top bits → double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    COCG_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal (128-layer ziggurat).
  double normal() { return ziggurat::normal(*this); }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) {
    COCG_EXPECTS(stddev >= 0.0);
    return mean + stddev * normal();
  }

  /// Exponential with the given mean (= 1/rate). Requires mean > 0.
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Index drawn proportionally to non-negative weights (at least one > 0).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Uniformly shuffle [first, last) like std::shuffle.
  template <class It>
  void shuffle(It first, It last) {
    const auto n = last - first;
    for (auto i = n - 1; i > 0; --i) {
      const auto j = static_cast<decltype(i)>(uniform_int(0, i));
      using std::swap;
      swap(first[i], first[j]);
    }
  }

  /// Derive an independent child generator (stable given call order).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace cocg
