// Traffic traces — the fleet's front door as data.
//
// A Trace is an open-loop arrival stream: one TraceEvent per session
// arrival, carrying the per-session context later QoS work chews on
// (region, game + category, player profile, declared expected session
// length) plus the router verdict when the trace was captured from a live
// run. Traces are the unit of evaluation (CGReplay's thesis): any run can
// capture its arrival stream, and any captured stream can be replayed
// bit-exactly against a different scheduler or router policy, so two
// variants are always compared on the *same* traffic.
//
// On disk a trace is a versioned, line-oriented, human-diffable text
// artifact on the common/textio.h substrate — the same discipline as
// model_io/profile_io: exact round trip (every field integral; names are
// table-interned so event lines never need quoting) and "trace line N"
// diagnostics on malformed input.
//
//   cocg-traffic-v1
//   meta <key> <free-form value>          (0+ lines, provenance)
//   regions <R>
//   region <idx> <name>
//   games <G>
//   game <idx> <category> <name>          (name may contain spaces)
//   events <N>
//   e <t_ms> <region> <game> <player> <profile> <expected_ms> <script> <shard>
//   end-traffic
//
// Event timestamps must be non-decreasing (validated on read — replay
// feeds them straight into fleet epochs). `shard` is the captured
// router verdict, -1 when the trace was generated rather than captured.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "game/spec.h"

namespace cocg::traffic {

/// Declared player commitment class; drives the expected-session-length
/// metadata (and nothing else — sessions still run their scripts).
enum class PlayerProfile : std::uint8_t { kCasual = 0, kRegular, kHardcore };
inline constexpr std::size_t kNumProfiles = 3;

const char* profile_name(PlayerProfile p);
/// Parse "casual" / "regular" / "hardcore"; throws std::runtime_error on
/// anything else.
PlayerProfile parse_profile(const std::string& name);

/// Interning table for region names. Index 0 is always "global" — the
/// region of every arrival that never stated one.
class RegionTable {
 public:
  RegionTable() { names_.emplace_back("global"); }

  /// Index of `name`, interning it if new.
  std::uint32_t intern(const std::string& name);
  /// Index of `name`, or npos when unknown.
  static constexpr std::uint32_t npos = ~std::uint32_t{0};
  std::uint32_t find(const std::string& name) const;

  const std::string& name(std::uint32_t idx) const;
  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

/// One session arrival.
struct TraceEvent {
  TimeMs t = 0;                  ///< arrival time (ms since trace start)
  std::uint32_t region = 0;      ///< index into Trace::regions
  std::uint32_t game = 0;        ///< index into Trace::games
  std::uint64_t player_id = 0;
  PlayerProfile profile = PlayerProfile::kRegular;
  DurationMs expected_session_ms = 0;  ///< declared, from the profile
  std::uint32_t script_idx = 0;
  std::int32_t shard = -1;  ///< captured router verdict; -1 = none

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Game identity as the trace carries it — name plus category, so a trace
/// is self-describing even without the spec library that produced it.
struct TraceGame {
  std::string name;
  game::GameCategory category = game::GameCategory::kWeb;

  friend bool operator==(const TraceGame&, const TraceGame&) = default;
};

struct Trace {
  /// Free-form provenance (generator recipe, seed, capture tool). Keys
  /// and values are single-line; written in map order.
  std::map<std::string, std::string> meta;
  std::vector<std::string> regions;  ///< index 0 conventionally "global"
  std::vector<TraceGame> games;
  std::vector<TraceEvent> events;  ///< non-decreasing t

  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Serialize. Throws std::runtime_error on I/O failure or on a trace that
/// violates its own invariants (event indices out of table range,
/// decreasing timestamps, names or meta values containing newlines).
void write_trace(const Trace& trace, std::ostream& os);
void save_trace(const Trace& trace, const std::string& path);

/// Deserialize and validate every invariant. Throws std::runtime_error
/// with a "trace line N" diagnostic on truncated, corrupt, out-of-range
/// or version-skewed input.
Trace read_trace(std::istream& is);
Trace load_trace(const std::string& path);

}  // namespace cocg::traffic
