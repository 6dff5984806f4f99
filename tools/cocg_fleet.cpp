// cocg_fleet — sharded multi-cluster simulation from the command line.
//
//   cocg_fleet [--shards K] [--threads T] [--policy rr|ll|p2c|region]
//              [--servers N] [--gpus G] [--arrivals-per-hour X]
//              [--minutes M] [--seed S] [--scheduler cocg|vbp|gaugur|improved]
//              [--games "A,B,..."]
//              [--trace-in t.trace] [--replay-reroute]
//              [--capture-out t.trace]
//              [--models-in dir] [--models-out dir]
//              [--report-out r.json] [--health-interval-s S]
//              [--metrics-out m.json] [--events-out e.jsonl]
//              [--trace-out t.json] [--health-out h.jsonl]
//              [--obs-out dir]
//
// Partitions N servers round-robin into K shards (each its own engine +
// platform + scheduler), generates an open-loop Poisson trace of
// --arrivals-per-hour per game (traffic::per_game_poisson, seeded from
// --seed) and feeds it through the router, runs the shards' epochs on T
// threads (--runner picks the sync policy), and prints the merged fleet
// report.
//
// Models are trained ONCE and shared across shards through a
// core::ModelBank (every shard aliases the same immutable compiled
// forests); --models-in skips training entirely by loading bundles
// written by `cocg_profiler train-suite` or --models-out. The
// observability flags dump the *merged* per-shard registries, the
// time-ordered event JSONL (with a shard field), and a Perfetto trace with
// one process group per shard.
//
// Capture/replay (docs/traffic.md): --capture-out records the run's
// arrival stream plus router verdicts as a traffic trace; --trace-in
// replays a trace INSTEAD of the generated Poisson trace (recorded
// verdicts honored, so replaying a capture reproduces the original
// report byte-for-byte at any --threads); --replay-reroute clears the
// verdicts so the configured --policy re-routes the identical stream —
// how two router policies are compared on the same traffic. Note
// --trace-out is the *Perfetto* trace (obs flag), not the traffic trace.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/scheduler_factory.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/cli.h"
#include "traffic/generator.h"
#include "cli_parse.h"

using namespace cocg;

namespace {

int usage() {
  std::cerr
      << "usage: cocg_fleet [options]\n"
         "  --shards K             number of shards (default 2)\n"
         "  --threads T            runner threads (default = shards)\n"
         "  --runner R             lockstep | steal (default lockstep);"
         " identical results, different scheduling\n"
         "  --policy P             rr | ll | p2c | region (default ll)\n"
         "  --servers N            total servers, split round-robin"
         " (default 2*shards)\n"
         "  --gpus G               GPUs per server (default 2)\n"
         "  --arrivals-per-hour X  Poisson arrivals per hour per game"
         " (default 30)\n"
         "  --minutes M            horizon in simulated minutes"
         " (default 30)\n"
         "  --seed S               fleet seed (default 42)\n"
         "  --scheduler NAME       cocg | vbp | gaugur | improved"
         " (default cocg)\n"
         "  --games \"A,B\"          comma-separated subset of the paper"
         " suite (default: all)\n"
         "  --trace-in FILE        replay a traffic trace instead of"
         " generating Poisson arrivals\n"
         "  --replay-reroute       ignore recorded router verdicts; let"
         " --policy re-route the stream\n"
         "  --capture-out FILE     record the arrival stream + router"
         " verdicts as a traffic trace\n"
         "  --health-interval-s S  seconds between health snapshots"
         " (default 30)\n"
         "  --models-in DIR        load trained bundles instead of"
         " training\n"
         "  --models-out DIR       save the trained bundles for reuse\n"
         "  --report-out FILE      write the merged report as canonical"
         " JSON\n"
      << obs::cli_usage_with_health();
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    const obs::CliOptions obs_opts =
        obs::strip_cli_flags(args, /*with_health=*/true);

    int shards = 2;
    int threads = 0;  // 0 → match shards
    std::string runner_name = "lockstep";
    std::string policy_name = "ll";
    int servers = 0;  // 0 → 2 per shard
    int gpus = 2;
    double arrivals_per_hour = 30.0;
    int minutes = 30;
    std::uint64_t seed = 42;
    std::string sched_name = "cocg";
    std::string games_csv;
    std::string models_in, models_out, report_out;
    std::string trace_in, capture_out;
    bool replay_reroute = false;
    int health_interval_s = 30;

    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= args.size()) {
          throw std::runtime_error("missing value for " + a);
        }
        return args[++i];
      };
      if (a == "--shards") shards = tools::parse_positive_int(a, next());
      else if (a == "--threads") threads = tools::parse_positive_int(a, next());
      else if (a == "--runner") runner_name = next();
      else if (a == "--policy") policy_name = next();
      else if (a == "--servers") servers = tools::parse_positive_int(a, next());
      else if (a == "--gpus") gpus = tools::parse_positive_int(a, next());
      else if (a == "--arrivals-per-hour") arrivals_per_hour = tools::parse_positive_double(a, next());
      else if (a == "--minutes") minutes = tools::parse_positive_int(a, next());
      else if (a == "--seed") seed = tools::parse_u64(a, next());
      else if (a == "--scheduler") sched_name = next();
      else if (a == "--games") games_csv = next();
      else if (a == "--models-in") models_in = next();
      else if (a == "--models-out") models_out = next();
      else if (a == "--report-out") report_out = next();
      else if (a == "--trace-in") trace_in = next();
      else if (a == "--capture-out") capture_out = next();
      else if (a == "--replay-reroute") replay_reroute = true;
      else if (a == "--health-interval-s") health_interval_s = tools::parse_positive_int(a, next());
      else if (a == "--help" || a == "-h") return usage();
      else {
        std::cerr << "unknown flag: " << a << "\n";
        return usage();
      }
    }
    const auto policy = fleet::parse_router_policy(policy_name);
    if (!policy) {
      std::cerr << "unknown policy: " << policy_name << "\n";
      return usage();
    }
    fleet::RunnerKind runner = fleet::RunnerKind::kLockstep;
    if (!fleet::parse_runner_kind(runner_name, runner)) {
      std::cerr << "unknown runner: " << runner_name << "\n";
      return usage();
    }
    if (threads == 0) threads = shards;
    if (servers == 0) servers = 2 * shards;

    static const std::vector<game::GameSpec> suite = game::paper_suite();
    std::vector<const game::GameSpec*> games;
    if (games_csv.empty()) {
      for (const auto& g : suite) games.push_back(&g);
    } else {
      for (const auto& name : split_csv(games_csv)) {
        const game::GameSpec* found = nullptr;
        for (const auto& g : suite) {
          if (g.name == name) found = &g;
        }
        if (found == nullptr) {
          std::cerr << "unknown game: " << name << "\n";
          return usage();
        }
        games.push_back(found);
      }
    }

    core::OfflineConfig ocfg;
    ocfg.profiling_runs = 8;
    ocfg.corpus_runs = 40;
    ocfg.seed = seed;

    core::ModelBank bank;
    if (!models_in.empty()) {
      bank = core::ModelBank::load_dir(models_in);
      std::cout << "loaded " << bank.size() << " model bundle(s) from "
                << models_in << "\n";
    } else {
      std::cout << "training models once (shared across shards)...\n";
      for (const auto& [name, tg] : core::train_suite(suite, ocfg)) {
        bank.add_trained(tg);
      }
    }
    if (!models_out.empty()) {
      const auto paths = bank.save_dir(models_out);
      std::cout << "wrote " << paths.size() << " bundle(s) to "
                << models_out << "\n";
    }

    fleet::FleetConfig fcfg;
    fcfg.shards = shards;
    fcfg.threads = threads;
    fcfg.runner = runner;
    fcfg.policy = *policy;
    fcfg.seed = seed;
    fleet::Fleet sim(fcfg, [&](int) {
      return core::make_named_scheduler(sched_name, bank, suite);
    });

    hw::ServerSpec spec;
    spec.num_gpus = gpus;
    for (int i = 0; i < servers; ++i) sim.add_server(spec);
    const DurationMs horizon = static_cast<DurationMs>(minutes) * 60 * 1000;
    if (trace_in.empty()) {
      sim.add_trace_arrivals(
          traffic::generate_trace(traffic::per_game_poisson(
              games, arrivals_per_hour, horizon, seed)),
          games, /*use_recorded_routing=*/false);
    } else {
      const traffic::Trace trace = traffic::load_trace(trace_in);
      const std::size_t n = sim.add_trace_arrivals(
          trace, games, /*use_recorded_routing=*/!replay_reroute);
      std::cout << "replaying " << n << " arrival(s) from " << trace_in
                << (replay_reroute ? " (re-routed by policy)"
                                   : " (recorded routing)")
                << "\n";
    }
    traffic::TraceRecorder recorder;
    if (!capture_out.empty()) {
      recorder.set_meta("capture", "cocg_fleet");
      recorder.set_meta("seed", std::to_string(seed));
      recorder.set_meta("policy", fleet::router_policy_name(*policy));
      sim.enable_capture(&recorder);
    }

    std::ofstream health_os;
    if (!obs_opts.health_out.empty()) {
      health_os.open(obs_opts.health_out);
      if (!health_os) {
        throw std::runtime_error("cannot open " + obs_opts.health_out);
      }
      const auto health_period =
          static_cast<DurationMs>(health_interval_s) * 1000;
      obs::write_health_header(health_period, health_os);
      sim.enable_health_stream(&health_os, health_period);
    }

    std::cout << "running " << shards << " shard(s) x " << servers
              << " server(s) under " << sched_name << ", policy "
              << fleet::router_policy_name(*policy) << ", " << threads
              << " thread(s), " << fleet::runner_kind_name(runner)
              << " runner, " << minutes << " min...\n";
    const auto wall0 = std::chrono::steady_clock::now();
    sim.run(horizon);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();

    const auto rep = sim.report();
    TablePrinter table({"metric", "value"});
    table.add_row({"simulated minutes", std::to_string(minutes)});
    table.add_row({"wall seconds", TablePrinter::fmt(wall_s, 2)});
    table.add_row({"sim-seconds per wall-second",
                   TablePrinter::fmt(ms_to_sec(horizon) / wall_s, 0)});
    table.add_row({"arrivals generated", std::to_string(rep.arrivals)});
    table.add_row({"completed runs", std::to_string(rep.completed)});
    table.add_row({"throughput T (game-seconds)",
                   TablePrinter::fmt(rep.throughput, 0)});
    table.add_row({"QoS violations (s)",
                   TablePrinter::fmt(rep.qos_violation_s, 0)});
    table.add_row({"mean admission wait (s)",
                   TablePrinter::fmt(rep.mean_wait_s, 1)});
    if (runner == fleet::RunnerKind::kSteal) {
      const auto& es = sim.executor_stats();
      table.add_row({"executor epochs run", std::to_string(es.jobs_run)});
      table.add_row({"executor steals / syncs",
                     std::to_string(es.steals) + " / " +
                         std::to_string(es.syncs)});
    }
    table.print(std::cout);

    TablePrinter per_shard({"shard", "servers", "routed", "completed",
                            "T (game-s)", "queued@end", "running@end"});
    for (const auto& row : rep.shards) {
      per_shard.add_row({std::to_string(row.shard),
                         std::to_string(row.servers),
                         std::to_string(row.routed),
                         std::to_string(row.completed),
                         TablePrinter::fmt(row.throughput, 0),
                         std::to_string(row.queued_end),
                         std::to_string(row.running_end)});
    }
    per_shard.print(std::cout);

    TablePrinter slo_table({"SLO class", "runs", "FPS attained",
                            "latency attained"});
    for (const auto& row : rep.slo) {
      slo_table.add_row({row.slo_class, std::to_string(row.runs),
                         TablePrinter::fmt_pct(row.fps_attainment_pct, 1),
                         TablePrinter::fmt_pct(row.latency_attainment_pct,
                                               1)});
    }
    slo_table.print(std::cout);

    if (rep.regions.size() > 1) {
      TablePrinter per_region(
          {"region", "routed", "completed", "mean FPS ratio"});
      for (const auto& row : rep.regions) {
        per_region.add_row({row.region, std::to_string(row.routed),
                            std::to_string(row.completed),
                            TablePrinter::fmt(row.mean_fps_ratio, 3)});
      }
      per_region.print(std::cout);
    }

    if (!capture_out.empty()) {
      traffic::save_trace(recorder.trace(), capture_out);
      std::cout << "captured " << recorder.size() << " arrival(s) to "
                << capture_out << "\n";
    }

    if (!obs_opts.health_out.empty()) {
      std::cout << "wrote health snapshots to " << obs_opts.health_out
                << "\n";
    }
    if (!report_out.empty()) {
      std::ofstream os(report_out);
      if (!os) throw std::runtime_error("cannot open " + report_out);
      fleet::write_report_json(rep, os, sim.executor_stats());
      std::cout << "wrote merged report to " << report_out << "\n";
    }

    // Merged observability outputs (the global-domain sinks the generic
    // obs::write_outputs would dump stay empty — shards record into their
    // own domains).
    if (!obs_opts.metrics_out.empty()) {
      obs::MetricsRegistry merged;
      sim.merge_metrics(merged);
      std::ofstream os(obs_opts.metrics_out);
      if (!os) throw std::runtime_error("cannot open " + obs_opts.metrics_out);
      merged.write_json(os);
      std::cout << "wrote merged metrics to " << obs_opts.metrics_out << "\n";
    }
    if (!obs_opts.events_out.empty()) {
      std::ofstream os(obs_opts.events_out);
      if (!os) throw std::runtime_error("cannot open " + obs_opts.events_out);
      sim.write_merged_events_jsonl(os);
      std::cout << "wrote merged events to " << obs_opts.events_out << "\n";
    }
    if (!obs_opts.trace_out.empty()) {
      std::ofstream os(obs_opts.trace_out);
      if (!os) throw std::runtime_error("cannot open " + obs_opts.trace_out);
      sim.write_merged_trace(os);
      std::cout << "wrote merged trace to " << obs_opts.trace_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
