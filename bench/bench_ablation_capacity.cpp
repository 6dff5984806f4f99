// Ablation — sustainable arrival rate under open-loop load.
//
// The operator's question behind Fig. 11: how many players per hour can
// one server absorb before the queue diverges? Sweep a Poisson arrival
// rate of mixed Genshin/Contra sessions on one 2-GPU server and report
// served fraction and end-of-run queue length, CoCG vs VBP. CoCG's
// fine-grained packing shifts the saturation knee to the right.
#include <iostream>

#include "bench_util.h"
#include "core/baselines.h"
#include "core/cocg_scheduler.h"
#include "platform/cloud_platform.h"
#include "traffic/generator.h"
#include "traffic/source.h"

using namespace cocg;

namespace {

struct LoadResult {
  std::size_t arrivals = 0;
  std::size_t served = 0;
  std::size_t queued = 0;
};

LoadResult run_load(std::unique_ptr<platform::Scheduler> sched,
                    double per_hour, std::uint64_t seed) {
  platform::PlatformConfig pcfg;
  pcfg.seed = seed;
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  static const auto& suite = bench::paper_suite_static();
  // Genshin Impact and Contra, half the rate each.
  const std::vector<const game::GameSpec*> games = {&suite[2], &suite[4]};
  constexpr DurationMs kHorizon = 2LL * 60 * 60 * 1000;
  traffic::RegionTable regions;
  const auto arrivals = traffic::bind_trace(
      traffic::generate_trace(
          traffic::per_game_poisson(games, per_hour * 0.5, kHorizon, seed)),
      games, regions);
  for (const auto& a : arrivals) {
    cloud.schedule_request(a.spec, a.script_idx, a.player_id, a.at);
  }
  cloud.run(kHorizon);

  LoadResult res;
  res.arrivals = arrivals.size();
  res.served = cloud.completed_runs().size();
  res.queued = cloud.queued_requests();
  return res;
}

}  // namespace

int main() {
  bench::banner("Ablation", "sustainable open-loop arrival rate");

  auto fresh = [] {
    return core::train_suite(bench::paper_suite_static(),
                             bench::bench_offline_config(4747));
  };

  TablePrinter table({"arrivals/hour", "VBP served", "VBP queue@end",
                      "CoCG served", "CoCG queue@end"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"rate", "vbp_served", "vbp_arrivals", "vbp_queue",
                 "cocg_served", "cocg_arrivals", "cocg_queue"});
  for (double rate : {6.0, 12.0, 18.0, 24.0, 36.0}) {
    const auto vbp = run_load(
        std::make_unique<core::VbpScheduler>(fresh()), rate, 4700);
    const auto cocg = run_load(
        std::make_unique<core::CocgScheduler>(fresh()), rate, 4700);
    table.add_row(
        {TablePrinter::fmt(rate, 0),
         std::to_string(vbp.served) + "/" + std::to_string(vbp.arrivals),
         std::to_string(vbp.queued),
         std::to_string(cocg.served) + "/" + std::to_string(cocg.arrivals),
         std::to_string(cocg.queued)});
    csv.push_back({TablePrinter::fmt(rate, 1), std::to_string(vbp.served),
                   std::to_string(vbp.arrivals), std::to_string(vbp.queued),
                   std::to_string(cocg.served),
                   std::to_string(cocg.arrivals),
                   std::to_string(cocg.queued)});
  }
  table.print(std::cout);
  bench::write_csv("ablation_capacity", csv);
  std::cout << "\nExpected: at low rates both serve everything; as load"
               " grows VBP's queue diverges first — CoCG's saturation knee"
               " sits at a higher arrival rate.\n";
  return 0;
}
