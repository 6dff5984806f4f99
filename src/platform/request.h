// Game requests and closed-loop request sources.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "game/spec.h"

namespace cocg::platform {

/// Per-session traffic context carried from the arrival stream into the
/// session (and out again on CompletedRun). Indices and codes are opaque
/// to the platform: `region` indexes the fleet's traffic::RegionTable
/// (0 = "global"), `profile` encodes traffic::PlayerProfile, and
/// `expected_session_ms` is the player's *declared* expected session
/// length — metadata for QoS/capacity work, never a control input.
struct RequestMeta {
  std::uint32_t region = 0;
  std::uint8_t profile = 1;  ///< traffic::PlayerProfile::kRegular
  DurationMs expected_session_ms = 0;
};

/// A pending "start this game for this player" request.
struct GameRequest {
  RequestId id;
  const game::GameSpec* spec = nullptr;
  std::size_t script_idx = 0;
  std::uint64_t player_id = 0;
  TimeMs arrival = 0;
  RequestMeta meta;
  /// Index of the closed-loop source that issued the request (the order
  /// of add_source calls); -1 when none did.
  int source = -1;
};

/// Closed-loop source (the Fig. 11 methodology): a game "continuously runs
/// requests" — whenever fewer than `max_concurrent` instances are queued or
/// running, another request is submitted with a uniformly random script.
struct SourceConfig {
  const game::GameSpec* spec = nullptr;
  int max_concurrent = 1;
  int player_pool = 16;  ///< player ids drawn from [1, player_pool]
};

}  // namespace cocg::platform
