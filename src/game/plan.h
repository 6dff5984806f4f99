// Play-through plan generation: script + user influence → concrete stage
// sequence.
//
// The user-influence model implements Fig. 7's quadrants:
//  * web      — the script is played verbatim;
//  * mobile   — players complete the same tasks in a per-player preferred
//               order (stable for a given player id);
//  * console  — optional segments (cutscenes/menus) are sometimes skipped;
//  * MMORPG/MOBA — segment repeat counts (rounds, fights) vary per run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "game/spec.h"

namespace cocg::game {

/// One concrete stage occurrence in a run.
struct PlannedStage {
  int stage_type = -1;
  DurationMs planned_dwell_ms = 0;  ///< loading: nominal at full supply
  std::vector<int> cluster_order;   ///< concrete visit order within the stage
};

/// Expand a script into the concrete stage sequence one run will follow:
/// initialization loading, then each surviving segment followed by a
/// runtime loading stage; the final loading doubles as shutdown (§IV-A1).
///
/// `player_id` seeds the per-player task order for mobile games; `rng`
/// supplies all other randomness (dwell draws, repeats, skips, shuffles).
std::vector<PlannedStage> generate_plan(const GameSpec& spec,
                                        std::size_t script_idx,
                                        std::uint64_t player_id, Rng& rng);

/// Stage-type sequence of a plan (for predictor training corpora).
std::vector<int> plan_stage_types(const std::vector<PlannedStage>& plan);

}  // namespace cocg::game
