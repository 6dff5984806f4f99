// Fig. 10 — "Genshin Impact prediction allocation."
//
// A solo Genshin Impact run under CoCG: the predictor-driven allocation is
// plotted against the actual consumption. Paper reference points: the
// allocation covers the consumption nearly everywhere; vs always-peak
// allocation (the paper quotes a 65% constant), 27.3% of resources are
// saved on Genshin and 17.5% on average across the five games; transient
// fluctuations cause brief allocation jumps that the rehearsal callback
// reverts (the paper's 300–500 s episode).
#include <iostream>

#include "bench_util.h"
#include "core/cocg_scheduler.h"
#include "platform/cloud_platform.h"

using namespace cocg;

namespace {

struct SavingResult {
  double saving = 0.0;      ///< 1 − alloc_integral / peak_integral
  double covered = 0.0;     ///< fraction of ticks with alloc ≥ usage (GPU)
  int callbacks = 0;
};

SavingResult measure_game(const std::string& name,
                          std::vector<std::vector<std::string>>* csv) {
  auto models = core::train_suite(bench::paper_suite_static(),
                                  bench::bench_offline_config(1010));
  const ResourceVector peak = models.at(name).profile().peak_demand;
  auto sched = std::make_unique<core::CocgScheduler>(std::move(models));
  auto* sched_ptr = sched.get();

  platform::PlatformConfig pcfg;
  pcfg.seed = 1234;
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  static const auto suite = game::paper_suite();
  const game::GameSpec* spec = nullptr;
  for (const auto& g : suite) {
    if (g.name == name) spec = &g;
  }
  cloud.submit(spec, 0, 1);

  SavingResult res;
  double alloc_int = 0, peak_int = 0;
  std::size_t covered = 0, ticks = 0;
  for (int step = 0; step < 400; ++step) {
    cloud.run(5 * 1000);
    if (cloud.running_sessions() == 0) break;
    const SessionId sid = cloud.session_ids()[0];
    const auto info = cloud.session_info(sid);
    const auto& samples = cloud.session_samples(sid);
    const double usage_gpu = samples.empty() ? 0.0 : samples.back().usage.gpu();
    const double alloc_gpu = std::min(info.allocation.gpu(), 100.0);
    alloc_int += alloc_gpu;
    peak_int += peak.gpu();
    if (alloc_gpu + 1.0 >= usage_gpu) ++covered;
    ++ticks;
    if (csv != nullptr) {
      csv->push_back({name, std::to_string(step * 5),
                      TablePrinter::fmt(alloc_gpu, 2),
                      TablePrinter::fmt(usage_gpu, 2),
                      TablePrinter::fmt(peak.gpu(), 2)});
    }
  }
  res.saving = peak_int > 0 ? 1.0 - alloc_int / peak_int : 0.0;
  res.covered =
      ticks > 0 ? static_cast<double>(covered) / static_cast<double>(ticks)
                : 0.0;
  res.callbacks = sched_ptr->total_callbacks();
  return res;
}

}  // namespace

int main() {
  bench::banner("Fig. 10", "prediction-driven allocation vs actual usage");

  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "t_s", "alloc_gpu", "usage_gpu", "peak_gpu"});

  TablePrinter table({"game", "saving vs peak-alloc", "coverage", "paper"});
  double saving_sum = 0.0;
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"Genshin Impact", "27.3%"}, {"DOTA2", "-"},      {"CSGO", "-"},
      {"Devil May Cry", "-"},      {"Contra", "-"}};
  for (const auto& [name, paper] : rows) {
    const auto res =
        measure_game(name, name == "Genshin Impact" ? &csv : nullptr);
    saving_sum += res.saving;
    table.add_row({name, TablePrinter::fmt_pct(100 * res.saving, 1),
                   TablePrinter::fmt_pct(100 * res.covered, 1), paper});
  }
  table.add_row({"AVERAGE",
                 TablePrinter::fmt_pct(100 * saving_sum / rows.size(), 1),
                 "-", "17.5%"});
  table.print(std::cout);
  bench::write_csv("fig10_prediction_allocation", csv);
  std::cout << "\nExpected shape: allocation tracks the stage structure,"
               " covering actual usage while saving a double-digit share"
               " vs constant peak allocation.\n";
  return 0;
}
