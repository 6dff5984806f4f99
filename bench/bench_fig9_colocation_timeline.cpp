// Fig. 9 — "Co-location of Genshin Impact and DOTA2."
//
// Reproduces the paper's representative co-location run: both games on one
// GPU under the CoCG scheduler, per-tick combined utilization recorded.
// Paper reference points: Genshin peaks ≈78% GPU, DOTA2 ≈43%, combined
// consumption stays below the 95% upper limit, and the regulator stretches
// a loading stage (≈15 s in the paper's fourth period) to stagger peaks.
#include <iostream>

#include "bench_util.h"
#include "core/cocg_scheduler.h"
#include "platform/cloud_platform.h"

using namespace cocg;

int main() {
  bench::banner("Fig. 9", "Genshin Impact + DOTA2 co-location timeline");

  auto models = core::train_suite(bench::paper_suite_static(),
                                  bench::bench_offline_config(909));
  const double genshin_peak =
      models.at("Genshin Impact").profile().peak_demand.gpu();
  const double dota2_peak = models.at("DOTA2").profile().peak_demand.gpu();

  platform::PlatformConfig pcfg;
  pcfg.seed = 99;
  platform::CloudPlatform cloud(
      pcfg, std::make_unique<core::CocgScheduler>(std::move(models)));
  hw::ServerSpec one_gpu;
  one_gpu.num_gpus = 1;
  cloud.add_server(one_gpu);
  cloud.enable_utilization_recording(true);

  static const auto genshin = game::make_genshin();
  static const auto dota2 = game::make_dota2();
  cloud.add_source({&genshin, 1, 8});
  cloud.add_source({&dota2, 1, 8});
  cloud.run(30 * 60 * 1000);

  // Per-session GPU draw + combined, summarized per 30 s for the console
  // and per tick in the CSV.
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"t_s", "combined_gpu_frac"});
  double max_combined = 0.0;
  std::size_t over_limit = 0;
  for (const auto& up : cloud.utilization_log()) {
    const double frac = up.total_supplied.gpu() / 100.0;
    csv.push_back({TablePrinter::fmt(ms_to_sec(up.t), 0),
                   TablePrinter::fmt(frac, 4)});
    max_combined = std::max(max_combined, frac);
    if (up.max_dim_fraction > 0.95) ++over_limit;
  }
  bench::write_csv("fig9_colocation_timeline", csv);

  double total_ext_s = 0;
  for (const auto& run : cloud.completed_runs()) {
    total_ext_s += ms_to_sec(run.loading_extension_ms);
  }

  TablePrinter table({"metric", "measured", "paper"});
  table.add_row({"Genshin peak GPU%", TablePrinter::fmt(genshin_peak, 1),
                 "78"});
  table.add_row({"DOTA2 peak GPU%", TablePrinter::fmt(dota2_peak, 1), "43"});
  table.add_row({"max combined GPU fraction",
                 TablePrinter::fmt(max_combined * 100, 1) + "%",
                 "<= 95%"});
  table.add_row(
      {"ticks above 95% limit (any dim)",
       TablePrinter::fmt(100.0 * static_cast<double>(over_limit) /
                             static_cast<double>(
                                 cloud.utilization_log().size()),
                         1) +
           "%",
       "~0% (representative run)"});
  table.add_row({"loading time stolen (completed runs)",
                 TablePrinter::fmt(total_ext_s, 0) + "s",
                 "~15s per staggered peak"});
  table.add_row({"completed runs",
                 std::to_string(cloud.completed_runs().size()), "-"});
  table.print(std::cout);
  return 0;
}
