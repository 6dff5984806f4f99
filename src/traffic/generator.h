// Workload generator — production-shaped open-loop arrival traces.
//
// Four recipes, all driven by one seeded RNG (same config + seed → byte
// identical trace, the property the round-trip CI job leans on):
//
//  * poisson  — homogeneous baseline at `arrivals_per_hour`;
//  * diurnal  — sinusoidal day/night cycle: rate(t) scales by
//               1 + amplitude·sin(2π(t/period + phase)); amplitude 0.6
//               means peak traffic is 4× the trough;
//  * flash    — a game launch: one game's share of the mix ramps to
//               `flash_multiplier`× over `flash_ramp_ms`, holds for
//               `flash_hold_ms`, ramps back down (total rate rises with
//               it — flash crowds are extra players, not substitution);
//  * failover — a region evacuates: `failover_from`'s arrival share
//               linearly shifts onto `failover_to` across
//               [failover_at_ms, failover_at_ms + failover_ramp_ms].
//
// Time-varying rates are realized by Lewis–Shedler thinning against the
// recipe's peak rate, so inter-arrival statistics stay exactly Poisson at
// every instant. Each accepted arrival then draws region, game, player,
// profile and expected session length from the same RNG.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "game/spec.h"
#include "traffic/trace.h"

namespace cocg::traffic {

enum class Pattern { kPoisson, kDiurnal, kFlashCrowd, kRegionalFailover };

const char* pattern_name(Pattern p);
/// Parse "poisson" / "diurnal" / "flash" / "failover"; throws
/// std::runtime_error on anything else.
Pattern parse_pattern(const std::string& name);

struct GeneratorConfig {
  Pattern pattern = Pattern::kPoisson;
  DurationMs duration_ms = 60 * 60 * 1000;
  /// Aggregate baseline rate across all games and regions.
  double arrivals_per_hour = 600.0;
  /// Game mix; weights need not be normalized (empty weights = uniform).
  std::vector<const game::GameSpec*> games;
  std::vector<double> game_weights;
  /// Region mix (empty = single "global" region, uniform weights).
  std::vector<std::string> regions;
  std::vector<double> region_weights;
  int player_pool = 10'000;
  std::uint64_t seed = 42;

  // diurnal
  double diurnal_amplitude = 0.6;  ///< in [0, 1)
  DurationMs diurnal_period_ms = 24 * 60 * 60 * 1000;
  double diurnal_phase = 0.0;  ///< fraction of a period; 0 starts mid-ramp

  // flash crowd
  std::size_t flash_game = 0;  ///< index into `games`
  TimeMs flash_start_ms = 0;
  DurationMs flash_ramp_ms = 5 * 60 * 1000;
  DurationMs flash_hold_ms = 20 * 60 * 1000;
  double flash_multiplier = 8.0;

  // regional failover
  std::size_t failover_from = 0;  ///< index into `regions`
  std::size_t failover_to = 1;
  TimeMs failover_at_ms = 0;
  DurationMs failover_ramp_ms = 5 * 60 * 1000;
};

/// The open-loop load the fleet tools and benches run on: a Poisson stream
/// of `per_game_per_hour` arrivals per hour for each of `games` over
/// `duration_ms`, player ids drawn from [1, 16]. By superposition that is
/// one stream at rate × games with uniform game weights. The generator
/// seed is one splitmix64 step from `run_seed`, the seed of the fleet (or
/// platform) the load feeds, so the arrival stream never replays the
/// draws of a shard, router or training Rng seeded from the same value.
GeneratorConfig per_game_poisson(std::vector<const game::GameSpec*> games,
                                 double per_game_per_hour,
                                 DurationMs duration_ms,
                                 std::uint64_t run_seed);

/// Generate the trace for `cfg`. Validates the config (non-empty games,
/// weight lengths, amplitude range, pattern-specific indices) and throws
/// std::runtime_error on violations. The result carries a `meta` block
/// recording the recipe and seed.
Trace generate_trace(const GeneratorConfig& cfg);

}  // namespace cocg::traffic
