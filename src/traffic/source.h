// Arrival sources — the abstraction between "where arrivals come from"
// and "who serves them".
//
// The fleet used to hardwire a Poisson draw into its epoch loop; now it
// owns a list of ArrivalSources and asks each for the arrivals in
// (t0, t1] at every epoch boundary. PoissonSource reproduces the legacy
// open-loop stream draw-for-draw (same shared RNG, same per-stream
// chaining), so existing seeded experiments are bit-unchanged;
// TraceReplaySource feeds a captured or generated Trace back instead —
// the replay half of capture/replay. TraceRecorder is the capture half:
// the fleet hands it every routed arrival plus the router's verdict and
// it folds them into a Trace ready for save_trace.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "game/spec.h"
#include "traffic/trace.h"

namespace cocg::traffic {

/// Open-loop Poisson stream: players arrive at `arrivals_per_hour`
/// independent of service progress — the datacenter-facing workload model
/// (queue growth under overload is visible, unlike closed loops).
struct OpenLoopSource {
  const game::GameSpec* spec = nullptr;
  double arrivals_per_hour = 6.0;
  int player_pool = 16;
};

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

/// Pull interface the fleet drains once per epoch.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Append every arrival with `at` in (t0, t1] to `out`, in routing
  /// order. Called with strictly advancing, abutting windows.
  virtual void generate(TimeMs t0, TimeMs t1, std::vector<Arrival>& out) = 0;
};

/// Expected-session-length model shared by PoissonSource and the trace
/// generator: a per-category nominal length scaled by the player profile,
/// with mild deterministic jitter from `rng`. Metadata only — sessions
/// still run their scripts.
DurationMs draw_expected_session_ms(game::GameCategory category,
                                    PlayerProfile profile, Rng& rng);
/// Profile mix of a production pool: casual 50%, regular 35%,
/// hardcore 15%.
PlayerProfile draw_profile(Rng& rng);

/// The legacy fleet arrival stream: one shared RNG, each stream chaining
/// exponential gaps independently, drained stream-major per window —
/// exactly the draw order Fleet::generate_and_route used to perform, so
/// a given fleet seed still produces the identical arrival sequence.
/// Profile / expected-length metadata draws come from a *separate* forked
/// RNG so the primary stream stays untouched.
class PoissonSource final : public ArrivalSource {
 public:
  explicit PoissonSource(std::uint64_t seed);

  void add_stream(const OpenLoopSource& cfg, std::uint32_t region = 0);
  std::size_t num_streams() const { return streams_.size(); }

  void generate(TimeMs t0, TimeMs t1, std::vector<Arrival>& out) override;

 private:
  struct Stream {
    OpenLoopSource cfg;
    std::uint32_t region = 0;
    TimeMs next_due = kTimeNever;
  };
  Rng rng_;       ///< arrival times, scripts, players (legacy sequence)
  Rng meta_rng_;  ///< profile + expected-length metadata
  std::vector<Stream> streams_;
};

/// Error type for trace→spec binding problems (unknown game, bad script
/// index). Distinct from parse errors: the trace is well-formed, the
/// local game library just can't serve it.
class BindError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Resolve a Trace against a spec library: every trace game must match a
/// spec by name and every script index must exist on it. Region names are
/// interned into `regions` (so replay, capture and reporting share one
/// region id space). Throws BindError naming the offending game/event.
std::vector<Arrival> bind_trace(const Trace& trace,
                                const std::vector<const game::GameSpec*>& specs,
                                RegionTable& regions);

/// Replays a bound arrival vector. Borrows the storage — the owner (the
/// fleet, a bench) must keep it alive for the source's lifetime.
class TraceReplaySource final : public ArrivalSource {
 public:
  /// `use_recorded_shard` keeps captured router verdicts on the arrivals;
  /// when false they are cleared so the router decides afresh (the
  /// policy-comparison mode).
  TraceReplaySource(const std::vector<Arrival>* arrivals,
                    bool use_recorded_shard);

  void generate(TimeMs t0, TimeMs t1, std::vector<Arrival>& out) override;

 private:
  const std::vector<Arrival>* arrivals_;
  std::size_t next_ = 0;
  bool use_recorded_shard_;
};

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
