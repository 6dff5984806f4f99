// Bound arrivals — the in-memory form of a traffic trace.
//
// All open-loop load reaches the fleet as a Trace (captured by
// TraceRecorder or made by traffic::generate_trace). bind_trace resolves
// its game and region names into Arrivals, the form the fleet routes;
// TraceRecorder is the capture half: the fleet hands it every routed
// arrival plus the router's verdict and it folds them into a Trace ready
// for save_trace.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "game/spec.h"
#include "traffic/trace.h"

namespace cocg::traffic {

/// One spec-resolved arrival, ready to route. The in-memory twin of
/// TraceEvent: names are bound to a GameSpec and a RegionTable index.
struct Arrival {
  TimeMs at = 0;
  const game::GameSpec* spec = nullptr;
  std::uint32_t script_idx = 0;
  std::uint64_t player_id = 0;
  std::uint32_t region = 0;  ///< RegionTable index
  PlayerProfile profile = PlayerProfile::kRegular;
  DurationMs expected_session_ms = 0;
  std::int32_t shard = -1;  ///< recorded router verdict; -1 = route fresh
};

/// Error type for trace→spec binding problems (unknown game, bad script
/// index, out-of-order timestamps). Distinct from parse errors: the trace
/// is well-formed text, but it cannot be routed as it stands.
class BindError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Resolve a Trace against a spec library: every trace game must match a
/// spec by name and every script index must exist on it. Region names are
/// interned into `regions` (so replay, capture and reporting share one
/// region id space). Throws BindError naming the offending game/event,
/// including an event whose game or region index is out of range, or
/// whose timestamp is negative or earlier than its predecessor's (the
/// fleet routes bound arrivals in time order).
std::vector<Arrival> bind_trace(const Trace& trace,
                                const std::vector<const game::GameSpec*>& specs,
                                RegionTable& regions);

/// Capture sink: accumulates routed arrivals into a Trace. Games are
/// interned on first sight; the region table mirrors the live
/// RegionTable's index space exactly, so capture and replay agree on
/// region order (capture → replay → re-capture is a fixed point).
class TraceRecorder {
 public:
  TraceRecorder();

  /// Record one routed arrival. `shard` is the router's verdict.
  void record(const Arrival& a, const RegionTable& regions, int shard);

  void set_meta(const std::string& key, const std::string& value);
  std::size_t size() const { return trace_.events.size(); }

  /// The captured trace (valid to write at any point).
  const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
  std::unordered_map<const game::GameSpec*, std::uint32_t> game_index_;
};

}  // namespace cocg::traffic
