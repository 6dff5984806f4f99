#include "game/plan.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace cocg::game {

namespace {

PlannedStage instantiate_stage(const GameSpec& spec, int stage_type,
                               Rng& rng) {
  const StageTypeSpec& st = spec.stage_type(stage_type);
  PlannedStage ps;
  ps.stage_type = stage_type;
  ps.planned_dwell_ms = rng.uniform_int(st.min_dwell_ms, st.max_dwell_ms);
  ps.cluster_order = st.clusters;
  if (st.shuffle_clusters && ps.cluster_order.size() > 1) {
    rng.shuffle(ps.cluster_order.begin(), ps.cluster_order.end());
  }
  return ps;
}

}  // namespace

std::vector<PlannedStage> generate_plan(const GameSpec& spec,
                                        std::size_t script_idx,
                                        std::uint64_t player_id, Rng& rng) {
  COCG_EXPECTS(script_idx < spec.scripts.size());
  const ScriptSpec& script = spec.scripts[script_idx];

  // Decide segment order: mobile players reorder tasks by a stable personal
  // preference derived from their player id.
  std::vector<std::size_t> order(script.segments.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (script.player_order && spec.category == GameCategory::kMobile) {
    Rng pref(player_id ^ (spec.id.value * 0x9e3779b97f4a7c15ULL));
    pref.shuffle(order.begin(), order.end());
  }

  std::vector<PlannedStage> plan;
  // Initialization loading.
  plan.push_back(instantiate_stage(spec, spec.loading_stage_type, rng));

  for (std::size_t oi : order) {
    const ScriptSegment& seg = script.segments[oi];
    COCG_EXPECTS(seg.stage_type >= 0 &&
                 seg.stage_type < spec.num_stage_types());
    COCG_EXPECTS(spec.stage_type(seg.stage_type).kind ==
                 StageKind::kExecution);
    if (seg.skip_prob > 0.0 && rng.chance(seg.skip_prob)) continue;
    COCG_EXPECTS(seg.min_repeat >= 1 && seg.max_repeat >= seg.min_repeat);
    const auto repeats =
        static_cast<int>(rng.uniform_int(seg.min_repeat, seg.max_repeat));
    for (int r = 0; r < repeats; ++r) {
      plan.push_back(instantiate_stage(spec, seg.stage_type, rng));
      // Runtime loading between stages; the last one doubles as shutdown.
      plan.push_back(instantiate_stage(spec, spec.loading_stage_type, rng));
    }
  }
  COCG_ENSURES(plan.size() >= 1);
  return plan;
}

std::vector<int> plan_stage_types(const std::vector<PlannedStage>& plan) {
  std::vector<int> out;
  out.reserve(plan.size());
  for (const auto& ps : plan) out.push_back(ps.stage_type);
  return out;
}

}  // namespace cocg::game
