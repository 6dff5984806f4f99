// Table I — "Evaluated Workloads": the five games, their automated scripts,
// and the number of stage types each script exercises.
//
// Two counts are printed: the designed count (from the workload model, the
// analogue of the paper's game knowledge) and the count CoCG's profiler
// actually discovers from traces of that script alone — these should agree.
#include <iostream>
#include <set>

#include "bench_util.h"
#include "core/frame_profiler.h"
#include "game/plan.h"
#include "game/tracegen.h"

using namespace cocg;

int main() {
  bench::banner("Table I", "evaluated workloads and stage-type counts");

  TablePrinter table({"game", "script", "description", "# stage types",
                      "# discovered", "paper"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "script", "designed", "discovered", "paper"});

  // Paper's Table I counts, keyed by (game, script index).
  const std::map<std::pair<std::string, std::size_t>, int> paper = {
      {{"DOTA2", 0}, 3},         {{"DOTA2", 1}, 3},
      {{"CSGO", 0}, 4},          {{"CSGO", 1}, 3},
      {{"Devil May Cry", 0}, 2}, {{"Devil May Cry", 1}, 4},
      {{"Devil May Cry", 2}, 6}, {{"Genshin Impact", 0}, 5},
      {{"Genshin Impact", 1}, 5},{{"Genshin Impact", 2}, 5},
      {{"Contra", 0}, 2},        {{"Contra", 1}, 2},
      {{"Contra", 2}, 2}};

  for (const auto& spec : game::paper_suite()) {
    // Global profile over all scripts (the paper clusters per game, then
    // counts which types each script exercises).
    Rng rng(900 + spec.id.value);
    std::vector<std::vector<ResourceVector>> all_runs;
    for (int r = 0; r < 12; ++r) {
      const auto script = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
      all_runs.push_back(game::profile_run_frame_means(
                             spec, script,
                             static_cast<std::uint64_t>(r % 4 + 1),
                             rng.next_u64())
                             .means);
    }
    core::ProfilerConfig pcfg;
    pcfg.forced_k = spec.num_clusters();
    core::FrameProfiler profiler(pcfg);
    const auto out = profiler.profile(spec.name, all_runs, rng);

    for (std::size_t s = 0; s < spec.scripts.size(); ++s) {
      const int designed = spec.script_stage_type_count(s);

      // Count the distinct catalog types this script's runs visit.
      std::set<int> visited;
      for (int r = 0; r < 8; ++r) {
        const auto run = game::profile_run_frame_means(
            spec, s, static_cast<std::uint64_t>(r % 4 + 1), rng.next_u64());
        for (int st : core::infer_stage_sequence(out.profile, run.means)) {
          visited.insert(st);
        }
      }
      const int discovered = static_cast<int>(visited.size());

      const int pk = paper.at({spec.name, s});
      table.add_row({spec.name, spec.scripts[s].name,
                     spec.scripts[s].description, std::to_string(designed),
                     std::to_string(discovered), std::to_string(pk)});
      csv.push_back({spec.name, spec.scripts[s].name,
                     std::to_string(designed), std::to_string(discovered),
                     std::to_string(pk)});
    }
  }
  table.print(std::cout);
  bench::write_csv("table1_workloads", csv);
  return 0;
}
