#include "game/tracegen.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "game/plan.h"
#include "game/session.h"

namespace cocg::game {

namespace {

// One scripted play-through on an idle server, handing each sample to
// `sink` as it is taken.
template <class Sink>
void play_solo(const GameSpec& spec, std::size_t script_idx,
               std::uint64_t player_id, std::uint64_t seed,
               const TraceGenConfig& cfg, Sink&& sink) {
  COCG_EXPECTS(script_idx < spec.scripts.size());
  COCG_EXPECTS(cfg.sample_period_ms > 0);
  Rng rng(seed);
  auto plan = generate_plan(spec, script_idx, player_id, rng);
  GameSession session(SessionId{player_id}, &spec, script_idx,
                      std::move(plan), rng.fork());
  Rng noise = rng.fork();

  TimeMs now = 0;
  session.begin(now);
  while (!session.finished()) {
    const ResourceVector demand = session.demand();

    telemetry::MetricSample s;
    s.t = now;
    // Full supply: consumption equals demand, plus probe measurement noise.
    s.usage = demand;
    for (std::size_t i = 0; i < kNumDims; ++i) {
      s.usage.at(i) = std::max(
          0.0, s.usage.at(i) *
                   (1.0 + noise.normal(0.0, cfg.measurement_noise_rel)));
    }
    s.true_stage_type = session.stage_type();
    s.true_loading = session.stage_kind() == StageKind::kLoading;
    s.true_cluster = session.current_cluster();

    session.tick(now, demand);
    s.fps = session.last_fps();
    sink(s);
    now += cfg.sample_period_ms;
  }
}

}  // namespace

telemetry::Trace profile_run(const GameSpec& spec, std::size_t script_idx,
                             std::uint64_t player_id, std::uint64_t seed,
                             const TraceGenConfig& cfg) {
  telemetry::Trace trace;
  play_solo(spec, script_idx, player_id, seed, cfg,
            [&](const telemetry::MetricSample& s) { trace.add(s); });
  return trace;
}

RunFrameMeans profile_run_frame_means(const GameSpec& spec,
                                      std::size_t script_idx,
                                      std::uint64_t player_id,
                                      std::uint64_t seed,
                                      const TraceGenConfig& cfg) {
  COCG_EXPECTS_MSG(cfg.sample_period_ms <= kFrameSliceMs,
                   "sample period " + std::to_string(cfg.sample_period_ms) +
                       " ms exceeds the " + std::to_string(kFrameSliceMs) +
                       " ms frame slice");
  // Samples fall at 0, p, 2p, ... with p <= the slice, so every slice gets
  // at least one and a sample past the open slice's end opens the next.
  RunFrameMeans out;
  ResourceVector acc;
  std::size_t n = 0;
  const auto close_slice = [&] {
    out.means.push_back(acc * (1.0 / static_cast<double>(n)));
    acc = ResourceVector{};
    n = 0;
  };
  play_solo(spec, script_idx, player_id, seed, cfg,
            [&](const telemetry::MetricSample& s) {
              const auto open = static_cast<TimeMs>(out.means.size());
              if (n > 0 && s.t >= (open + 1) * kFrameSliceMs) close_slice();
              acc += s.usage;
              ++n;
              out.last_sample_ms = s.t;
            });
  if (n > 0) close_slice();
  return out;
}

std::vector<RunRecord> generate_corpus(const GameSpec& spec, int n_runs,
                                       int n_players, std::uint64_t seed) {
  COCG_EXPECTS(n_runs > 0);
  COCG_EXPECTS(n_players > 0);
  COCG_EXPECTS(!spec.scripts.empty());
  Rng rng(seed);
  std::vector<RunRecord> out;
  out.reserve(static_cast<std::size_t>(n_runs));
  for (int r = 0; r < n_runs; ++r) {
    RunRecord rec;
    rec.script_idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    rec.player_id = static_cast<std::uint64_t>(
        rng.uniform_int(1, n_players));
    auto plan = generate_plan(spec, rec.script_idx, rec.player_id, rng);
    rec.stage_seq = plan_stage_types(plan);
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace cocg::game
