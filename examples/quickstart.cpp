// Quickstart: profile a game, train its stage predictor, and run a CoCG
// co-location — the whole pipeline in ~100 lines.
//
//   $ ./quickstart
//
// Walks through: (1) offline profiling of Genshin Impact (clusters, stage
// catalog, predictor accuracy), (2) a 30-minute co-location of Genshin
// Impact and DOTA2 on one server under the CoCG scheduler, (3) throughput
// and QoS results.
#include <iostream>

#include "core/baselines.h"
#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "game/library.h"
#include "platform/cloud_platform.h"

using namespace cocg;

int main() {
  // ------------------------------------------------------------------
  // 1. Offline: profile + train every game we intend to host.
  // ------------------------------------------------------------------
  std::cout << "=== offline profiling & training ===\n";
  const std::vector<game::GameSpec> suite = {game::make_genshin(),
                                             game::make_dota2()};
  core::OfflineConfig off;
  off.profiling_runs = 10;
  off.corpus_runs = 40;
  off.seed = 2024;
  auto models = core::train_suite(suite, off);

  for (const auto& [name, tg] : models) {
    std::cout << name << ": K=" << tg.bundle().chosen_k << " clusters, "
              << tg.profile().num_stage_types() << " stage types, "
              << "peak demand " << tg.profile().peak_demand.str()
              << ", predictor accuracy "
              << 100.0 * tg.predictor->accuracy() << "% ("
              << ml::model_kind_name(tg.predictor->model_kind()) << ")\n";
    for (const auto& st : tg.profile().stage_types) {
      std::cout << "  stage type " << st.id
                << (st.loading ? " [loading]" : " [execution]")
                << " clusters={";
      for (std::size_t i = 0; i < st.clusters.size(); ++i) {
        std::cout << (i ? "," : "") << st.clusters[i];
      }
      std::cout << "} peak gpu=" << st.peak_demand.gpu()
                << "% mean dwell=" << ms_to_sec(st.mean_duration_ms) << "s\n";
    }
  }

  // ------------------------------------------------------------------
  // 2. Online: co-locate Genshin Impact + DOTA2 under CoCG for 30 min.
  // ------------------------------------------------------------------
  std::cout << "\n=== co-location run (30 simulated minutes) ===\n";
  platform::PlatformConfig pcfg;
  pcfg.seed = 99;
  auto scheduler = std::make_unique<core::CocgScheduler>(std::move(models));
  platform::CloudPlatform cloud(pcfg, std::move(scheduler));

  hw::ServerSpec server;  // the paper's testbed: i7-7700 + 2x GTX 2080
  cloud.add_server(server);

  // Closed-loop sources: each game continuously re-requests.
  static const auto genshin = game::make_genshin();
  static const auto dota2 = game::make_dota2();
  cloud.add_source({&genshin, /*max_concurrent=*/1, /*player_pool=*/8});
  cloud.add_source({&dota2, /*max_concurrent=*/1, /*player_pool=*/8});

  cloud.run(30 * 60 * 1000);

  // ------------------------------------------------------------------
  // 3. Results.
  // ------------------------------------------------------------------
  std::cout << "completed runs: " << cloud.completed_runs().size()
            << ", still running: " << cloud.running_sessions()
            << ", queued: " << cloud.queued_requests() << "\n";
  for (const auto& [name, gs] : cloud.game_stats()) {
    std::cout << "  " << name << ": " << gs.completed << " runs, "
              << gs.total_duration_s << "s delivered, mean FPS ratio "
              << 100.0 * gs.mean_fps_ratio << "%, QoS violations "
              << gs.qos_violation_s << "s\n";
  }
  std::cout << "throughput T = " << cloud.throughput()
            << " game-seconds\n";
  return 0;
}
