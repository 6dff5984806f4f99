// Ablation — heterogeneous-platform profile migration (§IV-D).
//
// "When our pre-experiment analyzes the stage characteristics of the game
// for a specific GPU and CPU, no matter what platform the game is migrated
// to, the number of stages and the logical relationship between the stages
// will not change... The only thing that will change is the amount of
// resources consumed."
//
// For each game: profile on the baseline SKU, migrate the profile to a
// budget and a flagship SKU, and compare against profiles freshly measured
// on those SKUs: stage-type counts must match exactly; centroid error
// should be at profiling-noise level; and the baseline-trained predictor
// must keep its accuracy on target-SKU traces (catalog ids carry over).
#include <iostream>

#include "bench_util.h"
#include "core/frame_profiler.h"
#include "core/migration.h"
#include "game/platform_scaling.h"
#include "game/tracegen.h"

using namespace cocg;

namespace {

core::GameProfile profile_on(const game::GameSpec& spec,
                             std::uint64_t seed) {
  std::vector<std::vector<ResourceVector>> runs;
  Rng rng(seed);
  for (int r = 0; r < 12; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    runs.push_back(game::profile_run_frame_means(
                       spec, script, static_cast<std::uint64_t>(r % 4 + 1),
                       rng.next_u64())
                       .means);
  }
  core::ProfilerConfig cfg;
  cfg.forced_k = spec.num_clusters();
  core::FrameProfiler profiler(cfg);
  return profiler.profile(spec.name, runs, rng).profile;
}

}  // namespace

int main() {
  bench::banner("Ablation (§IV-D)", "profile migration across SKUs");

  TablePrinter table({"game", "target SKU", "types base/migrated/fresh",
                      "centroid err (migrated vs fresh)",
                      "centroid err (unmigrated vs fresh)"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "sku", "types_base", "types_fresh", "err_migrated",
                 "err_unmigrated"});

  const std::vector<std::pair<std::string, hw::ServerSpec>> skus = {
      {"budget (GTX-1080-class)", hw::budget_sku()},
      {"flagship (RTX-3090-class)", hw::flagship_sku()}};

  for (const auto& spec : bench::paper_suite_static()) {
    const auto base_profile = profile_on(spec, 7100 + spec.id.value);
    for (const auto& [sku_name, sku] : skus) {
      const auto migrated =
          core::migrate_profile(base_profile, hw::baseline_sku(), sku);
      const game::GameSpec on_target = game::scale_for_platform(spec, sku);
      const auto fresh = profile_on(on_target, 7200 + spec.id.value);

      const double err_mig =
          migrated.num_clusters() == fresh.num_clusters()
              ? core::profile_centroid_error(migrated, fresh)
              : -1.0;
      const double err_raw =
          base_profile.num_clusters() == fresh.num_clusters()
              ? core::profile_centroid_error(base_profile, fresh)
              : -1.0;
      table.add_row(
          {spec.name, sku_name,
           std::to_string(base_profile.num_stage_types()) + "/" +
               std::to_string(migrated.num_stage_types()) + "/" +
               std::to_string(fresh.num_stage_types()),
           TablePrinter::fmt(err_mig, 4), TablePrinter::fmt(err_raw, 4)});
      csv.push_back({spec.name, sku_name,
                     std::to_string(base_profile.num_stage_types()),
                     std::to_string(fresh.num_stage_types()),
                     TablePrinter::fmt(err_mig, 5),
                     TablePrinter::fmt(err_raw, 5)});
    }
  }
  table.print(std::cout);
  bench::write_csv("ablation_migration", csv);
  std::cout << "\nExpected: migrated centroids land at profiling-noise"
               " distance from freshly measured ones (err ~0.01), far"
               " closer than unmigrated baseline centroids (~0.2)."
               " Stage-type counts carry over wherever the target SKU can"
               " actually host the game; on the budget SKU the heavy"
               " titles saturate the GPU (utilization clamps at 100%),"
               " merging clusters — those games need the stronger"
               " platform, which is itself the §IV-D point.\n";
  return 0;
}
