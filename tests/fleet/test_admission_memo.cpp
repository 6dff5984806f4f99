// Oracle for the CoCG scheduler's admission-pass memos.
//
// The scheduler memoizes hosted-session outlooks until its next control()
// and candidate outlooks until the next model replacement. A stale memo is
// deterministic, so comparing two runs of one binary (Determinism.*) cannot
// catch it. This test instead pins a digest of an overloaded fleet's report
// and admission counters that was computed before the memos existed. Every
// invalidation event (control ticks, model replacement, session start and
// end, admission) happens in the run, and a hosted memo kept past control()
// or a candidate memo kept past a model replacement moves a decision here,
// and so the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_bank.h"
#include "core/offline.h"
#include "core/scheduler_factory.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace cocg::fleet {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct OverloadedRun {
  std::string report;    ///< canonical report JSON, stage_costs cleared
  std::string counters;  ///< scheduler.admit.* and distributor.* lines
  std::uint64_t model_replacements = 0;
  std::uint64_t readmitted = 0;  ///< admissions after a rejecting pass
  std::size_t completed = 0;
  std::uint64_t outlook_hits = 0, outlook_misses = 0;
  std::uint64_t candidate_hits = 0, candidate_misses = 0;
};

/// 8 servers in 2 shards under 3000 arrivals/h of three titles for 15
/// simulated minutes, default (noise-on) platform config: the queue grows
/// from the first minutes and most admit() calls re-reject.
OverloadedRun run_overloaded_fleet() {
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  const std::vector<game::GameSpec> suite = {
      game::make_contra(), game::make_csgo(), game::make_genshin()};
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;
  core::ModelBank bank;
  for (const auto& [name, tg] : core::train_suite(suite, ocfg)) {
    bank.add_trained(tg);
  }

  FleetConfig cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.policy = RouterPolicy::kLeastLoaded;
  cfg.seed = 1;
  Fleet f(cfg, [&](int) {
    return core::make_named_scheduler("cocg", bank, suite);
  });
  for (int i = 0; i < 8; ++i) f.add_server(hw::ServerSpec{});
  for (const auto& g : suite) f.add_global_source({&g, 1000.0, 64});
  f.run(15 * 60 * 1000);

  OverloadedRun out;
  FleetReport rep = f.report();
  out.completed = rep.completed;
  rep.stage_costs = {};
  out.report = report_json(rep);

  obs::MetricsRegistry merged;
  f.merge_metrics(merged);
  for (const auto& name : merged.counter_names()) {
    if (name.starts_with("scheduler.admit.") ||
        name.starts_with("distributor.")) {
      out.counters += name + "=" +
                      std::to_string(merged.counter_value(name)) + "\n";
    }
  }
  auto counter = [&](const std::string& name) {
    return merged.has_counter(name) ? merged.counter_value(name) : 0;
  };
  out.model_replacements = counter("scheduler.model_replacements");
  out.outlook_hits = counter("scheduler.outlook_memo.hits");
  out.outlook_misses = counter("scheduler.outlook_memo.misses");
  out.candidate_hits = counter("scheduler.candidate_memo.hits");
  out.candidate_misses = counter("scheduler.candidate_memo.misses");

  // A request is considered at the first control tick after it arrives,
  // so an admission that waited longer than one control period was
  // rejected by at least one earlier pass.
  const DurationMs period = cfg.platform.control_period_ms;
  std::istringstream events(f.merged_events_jsonl());
  for (std::string line; std::getline(events, line);) {
    obs::JsonValue v;
    if (!obs::json_parse(line, v) || v.get_string("kind") != "admission") {
      continue;
    }
    if (v.get_bool("admitted") &&
        v.get_number("waited_ms") > static_cast<double>(period)) {
      ++out.readmitted;
    }
  }
  obs::set_enabled(saved);
  return out;
}

const OverloadedRun& overloaded_run() {
  static const OverloadedRun run = run_overloaded_fleet();
  return run;
}

TEST(AdmissionMemo, OverloadedFleetMatchesParentDigest) {
  const OverloadedRun& run = overloaded_run();
  // The run must exercise every memo invalidation event.
  EXPECT_GT(run.model_replacements, 0u);
  EXPECT_GT(run.readmitted, 0u);
  EXPECT_GT(run.completed, 0u);
  // Digest computed from the scheduler that recomputed every outlook on
  // every admit() call.
  EXPECT_EQ(fnv1a(run.report + run.counters), 0xc3c0dd2ebfe14106ULL)
      << std::hex << fnv1a(run.report + run.counters) << "\n"
      << run.counters;
}

// Under overload nearly every admit() call re-rejects a queued request
// against hosted sessions whose outlooks were already computed in the same
// pass, and queued keys stay in the candidate memo across passes.
TEST(AdmissionMemo, HitsOutnumberMissesUnderOverload) {
  const OverloadedRun& run = overloaded_run();
  EXPECT_GT(run.outlook_misses, 0u);
  EXPECT_GT(run.outlook_hits, run.outlook_misses);
  EXPECT_GT(run.candidate_misses, 0u);
  EXPECT_GT(run.candidate_hits, run.candidate_misses);
}

}  // namespace
}  // namespace cocg::fleet
