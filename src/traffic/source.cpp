#include "traffic/source.h"

#include <string>

#include "common/check.h"

namespace cocg::traffic {

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
    if (e.t < 0 || (i > 0 && e.t < trace.events[i - 1].t)) {
      throw BindError("bind_trace: event " + std::to_string(i) + " at t=" +
                      std::to_string(e.t) +
                      " ms breaks time order (timestamps must be "
                      "non-negative and non-decreasing)");
    }
    if (e.game >= bound.size() || e.region >= region_map.size()) {
      throw BindError("bind_trace: event " + std::to_string(i) +
                      " names a game or region the trace does not list");
    }
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
