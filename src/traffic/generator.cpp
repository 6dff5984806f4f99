#include "traffic/generator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/check.h"
#include "common/rng.h"

namespace cocg::traffic {

namespace {

void require(bool ok, const std::string& msg) {
  if (!ok) throw std::runtime_error("generate_trace: " + msg);
}

/// Nominal expected session length per category (ms). Web platformers are
/// quick runs; consoles hold players the longest; MOBAs sit at match
/// length. Purely declarative metadata.
constexpr DurationMs kCategoryNominalMs[] = {
    10 * 60 * 1000,  // kWeb
    25 * 60 * 1000,  // kMobile
    40 * 60 * 1000,  // kConsole
    35 * 60 * 1000,  // kMoba
};

constexpr double kProfileScale[] = {
    0.5,  // casual
    1.0,  // regular
    1.8,  // hardcore
};

/// Expected-session-length model: a per-category nominal length scaled by
/// the player profile, with mild deterministic jitter from `rng`.
/// Metadata only — sessions still run their scripts.
DurationMs draw_expected_session_ms(game::GameCategory category,
                                    PlayerProfile profile, Rng& rng) {
  const auto c = static_cast<std::size_t>(category);
  const auto p = static_cast<std::size_t>(profile);
  COCG_EXPECTS(c < 4 && p < kNumProfiles);
  const double nominal =
      static_cast<double>(kCategoryNominalMs[c]) * kProfileScale[p];
  // ±25% deterministic jitter, floored at one minute.
  const double jittered = nominal * (1.0 + 0.25 * rng.normal());
  return static_cast<DurationMs>(std::max(60'000.0, jittered));
}

/// Profile mix of a production pool: casual 50%, regular 35%,
/// hardcore 15%.
PlayerProfile draw_profile(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.50) return PlayerProfile::kCasual;
  if (u < 0.85) return PlayerProfile::kRegular;
  return PlayerProfile::kHardcore;
}

/// Per-hour → per-ms.
double rate_per_ms(double per_hour) { return per_hour / 3'600'000.0; }

/// Diurnal modulation factor at time t.
double diurnal_factor(const GeneratorConfig& cfg, TimeMs t) {
  const double x =
      static_cast<double>(t) / static_cast<double>(cfg.diurnal_period_ms) +
      cfg.diurnal_phase;
  return 1.0 + cfg.diurnal_amplitude *
                   std::sin(2.0 * std::numbers::pi * x);
}

/// Flash-crowd extra-rate factor for the flash game at time t: 1 outside
/// the event, ramps linearly to `flash_multiplier`, holds, ramps back.
double flash_factor(const GeneratorConfig& cfg, TimeMs t) {
  const TimeMs ramp_up_end = cfg.flash_start_ms + cfg.flash_ramp_ms;
  const TimeMs hold_end = ramp_up_end + cfg.flash_hold_ms;
  const TimeMs ramp_down_end = hold_end + cfg.flash_ramp_ms;
  if (t < cfg.flash_start_ms || t >= ramp_down_end) return 1.0;
  if (t < ramp_up_end) {
    const double f = static_cast<double>(t - cfg.flash_start_ms) /
                     static_cast<double>(std::max<DurationMs>(1,
                                                              cfg.flash_ramp_ms));
    return 1.0 + (cfg.flash_multiplier - 1.0) * f;
  }
  if (t < hold_end) return cfg.flash_multiplier;
  const double f = static_cast<double>(ramp_down_end - t) /
                   static_cast<double>(std::max<DurationMs>(1,
                                                            cfg.flash_ramp_ms));
  return 1.0 + (cfg.flash_multiplier - 1.0) * f;
}

/// Fraction of `failover_from`'s share that has moved to `failover_to`.
double failover_fraction(const GeneratorConfig& cfg, TimeMs t) {
  if (t < cfg.failover_at_ms) return 0.0;
  const TimeMs end = cfg.failover_at_ms + cfg.failover_ramp_ms;
  if (t >= end) return 1.0;
  return static_cast<double>(t - cfg.failover_at_ms) /
         static_cast<double>(std::max<DurationMs>(1, cfg.failover_ramp_ms));
}

/// Instantaneous game weights at time t (flash crowd inflates one entry).
void game_weights_at(const GeneratorConfig& cfg, TimeMs t,
                     std::vector<double>& w) {
  for (std::size_t i = 0; i < cfg.games.size(); ++i) {
    w[i] = cfg.game_weights.empty() ? 1.0 : cfg.game_weights[i];
  }
  if (cfg.pattern == Pattern::kFlashCrowd) {
    w[cfg.flash_game] *= flash_factor(cfg, t);
  }
}

/// Instantaneous region weights at time t (failover drains one entry).
void region_weights_at(const GeneratorConfig& cfg, TimeMs t,
                       std::size_t n_regions, std::vector<double>& w) {
  for (std::size_t i = 0; i < n_regions; ++i) {
    w[i] = cfg.region_weights.empty() ? 1.0 : cfg.region_weights[i];
  }
  if (cfg.pattern == Pattern::kRegionalFailover) {
    const double f = failover_fraction(cfg, t);
    const double moving = w[cfg.failover_from] * f;
    w[cfg.failover_from] -= moving;
    w[cfg.failover_to] += moving;
  }
}

/// Total arrival rate (per ms) at time t. The flash crowd adds traffic on
/// top of the baseline: total rate scales by Σw(t)/Σw(0).
double total_rate_at(const GeneratorConfig& cfg, TimeMs t,
                     double base_weight_sum, std::vector<double>& scratch) {
  double rate = rate_per_ms(cfg.arrivals_per_hour);
  if (cfg.pattern == Pattern::kDiurnal) rate *= diurnal_factor(cfg, t);
  if (cfg.pattern == Pattern::kFlashCrowd) {
    game_weights_at(cfg, t, scratch);
    double sum = 0.0;
    for (double w : scratch) sum += w;
    rate *= sum / base_weight_sum;
  }
  return rate;
}

}  // namespace

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kPoisson: return "poisson";
    case Pattern::kDiurnal: return "diurnal";
    case Pattern::kFlashCrowd: return "flash";
    case Pattern::kRegionalFailover: return "failover";
  }
  throw std::runtime_error("invalid pattern");
}

Pattern parse_pattern(const std::string& name) {
  if (name == "poisson") return Pattern::kPoisson;
  if (name == "diurnal") return Pattern::kDiurnal;
  if (name == "flash" || name == "flash_crowd") return Pattern::kFlashCrowd;
  if (name == "failover" || name == "regional_failover") {
    return Pattern::kRegionalFailover;
  }
  throw std::runtime_error("unknown traffic pattern '" + name +
                           "' (want poisson|diurnal|flash|failover)");
}

GeneratorConfig per_game_poisson(std::vector<const game::GameSpec*> games,
                                 double per_game_per_hour,
                                 DurationMs duration_ms,
                                 std::uint64_t run_seed) {
  GeneratorConfig cfg;
  cfg.pattern = Pattern::kPoisson;
  cfg.duration_ms = duration_ms;
  cfg.arrivals_per_hour =
      per_game_per_hour * static_cast<double>(games.size());
  cfg.games = std::move(games);
  cfg.player_pool = 16;
  cfg.seed = SplitMix64(run_seed).next();
  return cfg;
}

Trace generate_trace(const GeneratorConfig& cfg) {
  require(!cfg.games.empty(), "at least one game required");
  for (const auto* g : cfg.games) {
    require(g != nullptr && !g->scripts.empty(),
            "every game needs a spec with scripts");
  }
  require(cfg.duration_ms > 0, "duration must be positive");
  require(cfg.arrivals_per_hour > 0.0, "arrival rate must be positive");
  require(cfg.player_pool >= 1, "player pool must be >= 1");
  require(cfg.game_weights.empty() ||
              cfg.game_weights.size() == cfg.games.size(),
          "game_weights must match games");
  const std::vector<std::string> regions =
      cfg.regions.empty() ? std::vector<std::string>{"global"} : cfg.regions;
  require(cfg.region_weights.empty() ||
              cfg.region_weights.size() == regions.size(),
          "region_weights must match regions");
  require(cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude < 1.0,
          "diurnal amplitude must be in [0, 1)");
  if (cfg.pattern == Pattern::kFlashCrowd) {
    require(cfg.flash_game < cfg.games.size(),
            "flash_game index out of range");
    require(cfg.flash_multiplier >= 1.0, "flash multiplier must be >= 1");
  }
  if (cfg.pattern == Pattern::kRegionalFailover) {
    require(regions.size() >= 2, "failover needs at least two regions");
    require(cfg.failover_from < regions.size() &&
                cfg.failover_to < regions.size() &&
                cfg.failover_from != cfg.failover_to,
            "failover region indices invalid");
  }

  Trace out;
  out.meta["generator"] = pattern_name(cfg.pattern);
  out.meta["seed"] = std::to_string(cfg.seed);
  out.meta["arrivals_per_hour"] = std::to_string(cfg.arrivals_per_hour);
  out.meta["duration_ms"] = std::to_string(cfg.duration_ms);
  out.regions = regions;
  out.games.reserve(cfg.games.size());
  for (const auto* g : cfg.games) {
    out.games.push_back(TraceGame{g->name, g->category});
  }

  std::vector<double> gw(cfg.games.size(), 1.0);
  std::vector<double> rw(regions.size(), 1.0);
  double base_weight_sum = 0.0;
  for (std::size_t i = 0; i < cfg.games.size(); ++i) {
    base_weight_sum += cfg.game_weights.empty() ? 1.0 : cfg.game_weights[i];
  }
  require(base_weight_sum > 0.0, "game weights must sum to > 0");

  // Peak rate for thinning: evaluate the factors' analytic maxima.
  double peak = rate_per_ms(cfg.arrivals_per_hour);
  if (cfg.pattern == Pattern::kDiurnal) {
    peak *= 1.0 + cfg.diurnal_amplitude;
  } else if (cfg.pattern == Pattern::kFlashCrowd) {
    const double flash_w =
        (cfg.game_weights.empty() ? 1.0 : cfg.game_weights[cfg.flash_game]);
    peak *= (base_weight_sum + flash_w * (cfg.flash_multiplier - 1.0)) /
            base_weight_sum;
  }

  Rng rng(cfg.seed);
  double t = 0.0;  // continuous time; events land on the floor ms
  const double horizon = static_cast<double>(cfg.duration_ms);
  while (true) {
    t += rng.exponential(1.0 / peak);
    if (t >= horizon) break;
    const auto tm = static_cast<TimeMs>(t);
    const double rate = total_rate_at(cfg, tm, base_weight_sum, gw);
    if (!rng.chance(rate / peak)) continue;  // thinned out

    game_weights_at(cfg, tm, gw);
    region_weights_at(cfg, tm, regions.size(), rw);
    TraceEvent e;
    e.t = tm;
    e.game = static_cast<std::uint32_t>(rng.weighted_index(gw));
    e.region = static_cast<std::uint32_t>(rng.weighted_index(rw));
    e.player_id =
        static_cast<std::uint64_t>(rng.uniform_int(1, cfg.player_pool));
    e.profile = draw_profile(rng);
    e.expected_session_ms = draw_expected_session_ms(
        cfg.games[e.game]->category, e.profile, rng);
    e.script_idx = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cfg.games[e.game]->scripts.size()) - 1));
    out.events.push_back(e);
  }
  return out;
}

}  // namespace cocg::traffic
