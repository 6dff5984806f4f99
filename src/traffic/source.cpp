#include "traffic/source.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace cocg::traffic {

namespace {

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

}  // namespace

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

PlayerProfile draw_profile(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.50) return PlayerProfile::kCasual;
  if (u < 0.85) return PlayerProfile::kRegular;
  return PlayerProfile::kHardcore;
}

PoissonSource::PoissonSource(std::uint64_t seed)
    : rng_(seed), meta_rng_(rng_.fork()) {}

void PoissonSource::add_stream(const OpenLoopSource& cfg,
                               std::uint32_t region) {
  COCG_EXPECTS(cfg.spec != nullptr);
  COCG_EXPECTS(cfg.arrivals_per_hour > 0.0);
  COCG_EXPECTS(cfg.player_pool >= 1);
  streams_.push_back(Stream{cfg, region, kTimeNever});
}

void PoissonSource::generate(TimeMs t0, TimeMs t1,
                             std::vector<Arrival>& out) {
  // Draw order must stay identical to the legacy in-fleet loop: per
  // stream, (init gap | script, player, gap) against the one shared rng_.
  for (auto& s : streams_) {
    const double mean_gap_ms = 3600.0 * 1000.0 / s.cfg.arrivals_per_hour;
    if (s.next_due == kTimeNever) {
      s.next_due = t0 + static_cast<DurationMs>(
                            std::max(1.0, rng_.exponential(mean_gap_ms)));
    }
    while (s.next_due <= t1) {
      Arrival a;
      a.at = s.next_due;
      a.spec = s.cfg.spec;
      a.script_idx = static_cast<std::uint32_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(s.cfg.spec->scripts.size()) - 1));
      a.player_id = static_cast<std::uint64_t>(
          rng_.uniform_int(1, s.cfg.player_pool));
      a.region = s.region;
      a.profile = draw_profile(meta_rng_);
      a.expected_session_ms = draw_expected_session_ms(
          s.cfg.spec->category, a.profile, meta_rng_);
      out.push_back(a);
      s.next_due += static_cast<DurationMs>(
          std::max(1.0, rng_.exponential(mean_gap_ms)));
    }
  }
}

std::vector<Arrival> bind_trace(
    const Trace& trace, const std::vector<const game::GameSpec*>& specs,
    RegionTable& regions) {
  // Per-trace-game resolution, checked up front so diagnostics name the
  // game rather than the first event that uses it.
  std::vector<const game::GameSpec*> bound;
  bound.reserve(trace.games.size());
  for (const auto& tg : trace.games) {
    const game::GameSpec* found = nullptr;
    for (const auto* s : specs) {
      if (s != nullptr && s->name == tg.name) {
        found = s;
        break;
      }
    }
    if (found == nullptr) {
      throw BindError("bind_trace: no spec for trace game '" + tg.name +
                      "'");
    }
    if (found->category != tg.category) {
      throw BindError("bind_trace: category mismatch for '" + tg.name +
                      "' (trace says it changed since capture)");
    }
    bound.push_back(found);
  }
  std::vector<std::uint32_t> region_map;
  region_map.reserve(trace.regions.size());
  for (const auto& name : trace.regions) region_map.push_back(
      regions.intern(name));

  std::vector<Arrival> out;
  out.reserve(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    const game::GameSpec* spec = bound[e.game];
    if (e.script_idx >= spec->scripts.size()) {
      throw BindError("bind_trace: event " + std::to_string(i) +
                      " script index " + std::to_string(e.script_idx) +
                      " out of range for '" + spec->name + "' (" +
                      std::to_string(spec->scripts.size()) + " scripts)");
    }
    Arrival a;
    a.at = e.t;
    a.spec = spec;
    a.script_idx = e.script_idx;
    a.player_id = e.player_id;
    a.region = region_map[e.region];
    a.profile = e.profile;
    a.expected_session_ms = e.expected_session_ms;
    a.shard = e.shard;
    out.push_back(a);
  }
  return out;
}

TraceReplaySource::TraceReplaySource(const std::vector<Arrival>* arrivals,
                                     bool use_recorded_shard)
    : arrivals_(arrivals), use_recorded_shard_(use_recorded_shard) {
  COCG_EXPECTS(arrivals != nullptr);
}

void TraceReplaySource::generate(TimeMs t0, TimeMs t1,
                                 std::vector<Arrival>& out) {
  const auto& all = *arrivals_;
  // Skip anything at or before t0 that an earlier window already emitted;
  // events exactly at sim start (t == 0) belong to the first window.
  while (next_ < all.size() &&
         (all[next_].at < t0 || (all[next_].at == t0 && t0 != 0))) {
    ++next_;
  }
  while (next_ < all.size() && all[next_].at <= t1) {
    Arrival a = all[next_++];
    if (!use_recorded_shard_) a.shard = -1;
    out.push_back(a);
  }
}

TraceRecorder::TraceRecorder() { trace_.regions.emplace_back("global"); }

void TraceRecorder::set_meta(const std::string& key,
                             const std::string& value) {
  trace_.meta[key] = value;
}

void TraceRecorder::record(const Arrival& a, const RegionTable& regions,
                           int shard) {
  COCG_EXPECTS(a.spec != nullptr);
  TraceEvent e;
  e.t = a.at;
  // Mirror the live RegionTable's index space verbatim (it only ever
  // appends), so a capture keeps the exact region order of the run — and
  // a replayed capture re-binds to the same indices, which is what makes
  // capture → replay → re-capture a fixed point.
  COCG_EXPECTS(a.region < regions.size());
  for (std::size_t i = trace_.regions.size(); i < regions.size(); ++i) {
    trace_.regions.push_back(regions.name(static_cast<std::uint32_t>(i)));
  }
  e.region = a.region;
  auto git = game_index_.find(a.spec);
  if (git == game_index_.end()) {
    git = game_index_
              .emplace(a.spec,
                       static_cast<std::uint32_t>(trace_.games.size()))
              .first;
    trace_.games.push_back(TraceGame{a.spec->name, a.spec->category});
  }
  e.game = git->second;
  e.player_id = a.player_id;
  e.profile = a.profile;
  e.expected_session_ms = a.expected_session_ms;
  e.script_idx = a.script_idx;
  e.shard = shard;
  COCG_EXPECTS_MSG(trace_.events.empty() || e.t >= trace_.events.back().t,
                   "capture must record arrivals in time order");
  trace_.events.push_back(e);
}

}  // namespace cocg::traffic
