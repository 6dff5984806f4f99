// colocation_demo — watch CoCG co-locate two games on one GPU.
//
//   $ ./colocation_demo [minutes] [--metrics-out m.json]
//                       [--events-out e.jsonl] [--trace-out t.json]
//
// Runs Genshin Impact and DOTA2 on a single-GPU server (the Fig. 9
// scenario) and prints a minute-by-minute timeline: each game's observed
// GPU draw, its judged stage kind, holds applied by the regulator, and
// the combined utilization against the 95% limit. The observability flags
// dump the run's metrics/events/trace — the worked example in
// docs/observability.md walks through the outputs.
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "game/library.h"
#include "obs/cli.h"
#include "platform/cloud_platform.h"

using namespace cocg;

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const obs::CliOptions obs_opts = obs::strip_cli_flags(args);
  const int minutes =
      !args.empty() ? std::max(1, std::atoi(args[0].c_str())) : 30;

  std::cout << "Training CoCG on the five-game suite...\n";
  static const std::vector<game::GameSpec> suite = game::paper_suite();
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 12;
  ocfg.corpus_runs = 60;
  ocfg.seed = 4096;
  auto models = core::train_suite(suite, ocfg);
  for (const auto& [name, tg] : models) {
    std::cout << "  " << name << ": accuracy "
              << TablePrinter::fmt_pct(100 * tg.predictor->accuracy(), 1)
              << ", peak " << tg.profile().peak_demand.str() << "\n";
  }

  platform::PlatformConfig pcfg;
  pcfg.seed = 11;
  platform::CloudPlatform cloud(
      pcfg, std::make_unique<core::CocgScheduler>(std::move(models)));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  cloud.enable_utilization_recording(true);
  cloud.add_source({&suite[2], 1, 8});  // Genshin Impact
  cloud.add_source({&suite[0], 1, 8});  // DOTA2

  std::cout << "\nminute | combined GPU | per-session (game, stage, gpu%)\n"
            << "-------+--------------+---------------------------------\n";
  std::size_t util_cursor = 0;
  for (int m = 1; m <= minutes; ++m) {
    cloud.run(60 * 1000);
    // Mean combined GPU over the last minute.
    const auto& log = cloud.utilization_log();
    double gpu_sum = 0;
    std::size_t n = 0;
    for (; util_cursor < log.size(); ++util_cursor) {
      gpu_sum += log[util_cursor].total_supplied.gpu();
      ++n;
    }
    std::cout << std::setw(6) << m << " | " << std::setw(11)
              << TablePrinter::fmt(n ? gpu_sum / n : 0.0, 1) << "% |";
    for (SessionId sid : cloud.session_ids()) {
      const auto& truth = cloud.session_truth(sid);
      const auto& samples = cloud.session_samples(sid);
      const double gpu = samples.empty() ? 0.0 : samples.back().usage.gpu();
      std::cout << "  [" << truth.spec().name << ": "
                << (truth.stage_kind() == game::StageKind::kLoading
                        ? (truth.loading_hold() ? "loading(HELD)" : "loading")
                        : "exec")
                << " " << TablePrinter::fmt(gpu, 0) << "%]";
    }
    std::cout << "\n";
  }

  std::cout << "\n=== results after " << minutes << " minutes ===\n";
  for (const auto& [name, gs] : cloud.game_stats()) {
    std::cout << name << ": " << gs.completed << " completed runs, "
              << TablePrinter::fmt(gs.total_duration_s, 0)
              << "s delivered, FPS ratio "
              << TablePrinter::fmt_pct(100 * gs.mean_fps_ratio, 1)
              << ", QoS violations " << TablePrinter::fmt(gs.qos_violation_s, 0)
              << "s\n";
  }
  std::cout << "throughput T = " << TablePrinter::fmt(cloud.throughput(), 0)
            << " game-seconds\n";
  obs::write_outputs(obs_opts);
  return 0;
}
