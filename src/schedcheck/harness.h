// Scenario runner — builds a real fleet (train-once ModelBank, CoCG
// scheduler, global Poisson sources) for record / replay / fuzz runs, with
// the invariant suite installed as the epoch-barrier hook. The scenario is
// round-tripped through schedule meta, so a failing schedule artifact is
// self-contained: `cocg_schedfuzz replay failing.sched` rebuilds the exact
// run from the file alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "fleet/executor.h"
#include "fleet/router.h"
#include "schedcheck/invariants.h"
#include "schedcheck/schedule.h"
#include "schedcheck/session.h"

namespace cocg::schedcheck {

struct Scenario {
  int shards = 2;
  int threads = 2;
  fleet::RunnerKind runner = fleet::RunnerKind::kLockstep;
  fleet::RouterPolicy policy = fleet::RouterPolicy::kPowerOfTwo;
  int servers = 4;  ///< total, round-robin across shards
  int gpus = 2;     ///< per server
  int minutes = 10; ///< simulated
  std::vector<std::string> games = {"Contra", "CSGO"};
  double arrivals_per_hour = 600.0;  ///< per game stream
  std::uint64_t seed = 42;
};

/// Scenario ⇄ schedule meta (self-contained artifacts). from_meta throws
/// std::runtime_error when required keys are missing or malformed.
void scenario_to_meta(const Scenario& sc, Schedule& schedule);
Scenario scenario_from_meta(const Schedule& schedule);

struct RunOutcome {
  /// Canonical fleet report (fleet::report_json); empty when aborted.
  std::string report;
  ReplayStats stats;
  std::vector<Violation> violations;
  bool aborted = false;  ///< an invariant violation stopped the run
  /// What the session captured: the recording (record mode) or the
  /// re-recording (replay with rerecord). Meta carries the scenario.
  Schedule recorded;
};

/// Record every decision of a natural run. Never aborts on invariants
/// unless the natural run itself is broken (which is a finding).
RunOutcome record_run(const Scenario& sc);

/// Replay `schedule` against the scenario. Non-strict replay free-runs
/// unmatched decisions (fuzz variants); strict replay throws
/// ScheduleDivergenceError on any divergence (fixed-point checks).
RunOutcome replay_run(const Scenario& sc, const Schedule& schedule,
                      bool strict = false, bool rerecord = false);

/// Uninstrumented run with the invariant hook only (baseline checks).
RunOutcome free_run(const Scenario& sc);

}  // namespace cocg::schedcheck
