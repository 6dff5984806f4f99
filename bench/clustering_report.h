// Shared helper: cluster a game's frames and print the Fig. 5/6-style
// cluster + stage-type report.
#pragma once

#include <iostream>
#include <string>

#include "bench_util.h"
#include "core/frame_profiler.h"
#include "game/tracegen.h"

namespace cocg::bench {


inline void report_game_clustering(const game::GameSpec& spec, int forced_k,
                            const std::string& csv_name) {
  std::vector<std::vector<ResourceVector>> runs;
  Rng rng(3100 + spec.id.value);
  for (int r = 0; r < 12; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    runs.push_back(game::profile_run_frame_means(
                       spec, script, static_cast<std::uint64_t>(r % 5 + 1),
                       rng.next_u64())
                       .means);
  }
  core::ProfilerConfig cfg;
  cfg.forced_k = forced_k;
  core::FrameProfiler profiler(cfg);
  const auto out = profiler.profile(spec.name, runs, rng);

  std::cout << "clusters (K=" << out.chosen_k << "):\n";
  TablePrinter clusters({"cluster", "CPU%", "GPU%", "VRAM MB", "frames",
                         "loading?"});
  for (const auto& c : out.profile.clusters) {
    clusters.add_row({std::to_string(c.id),
                      TablePrinter::fmt(c.centroid.cpu(), 1),
                      TablePrinter::fmt(c.centroid.gpu(), 1),
                      TablePrinter::fmt(c.centroid.gpu_mem(), 0),
                      std::to_string(c.frames), c.loading ? "yes" : "no"});
  }
  clusters.print(std::cout);

  std::cout << "stage types (cluster combinations):\n";
  TablePrinter stages({"type", "clusters", "kind", "peak GPU%",
                       "mean dwell (s)", "occurrences"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"type", "clusters", "kind", "peak_gpu", "mean_dwell_s",
                 "occurrences"});
  for (const auto& st : out.profile.stage_types) {
    std::string sig;
    for (std::size_t i = 0; i < st.clusters.size(); ++i) {
      sig += (i ? "+" : "") + std::to_string(st.clusters[i]);
    }
    stages.add_row({std::to_string(st.id), sig,
                    st.loading ? "loading" : "execution",
                    TablePrinter::fmt(st.peak_demand.gpu(), 1),
                    TablePrinter::fmt(ms_to_sec(st.mean_duration_ms), 0),
                    std::to_string(st.occurrences)});
    csv.push_back({std::to_string(st.id), sig,
                   st.loading ? "loading" : "execution",
                   TablePrinter::fmt(st.peak_demand.gpu(), 2),
                   TablePrinter::fmt(ms_to_sec(st.mean_duration_ms), 1),
                   std::to_string(st.occurrences)});
  }
  stages.print(std::cout);
  bench::write_csv(csv_name, csv);
  std::cout << "stage types: " << out.profile.num_stage_types() << " (2N = "
            << 2 * out.profile.num_clusters()
            << ", 2^N = " << (1 << out.profile.num_clusters()) << ")\n";
}


}  // namespace cocg::bench
