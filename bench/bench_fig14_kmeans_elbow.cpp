// Fig. 14 — "Clustering result with different K value."
//
// For each of the four figure games (the paper plots CSGO, DOTA2, Genshin
// Impact, Devil May Cry; Contra's trivial 2-cluster curve is included for
// completeness), run K-means over the profiled 5-second frames for
// K = 1..8 and print the SSE series plus the elbow-chosen K.
//
// Paper reference points: SSEs change little beyond the inflection; chosen
// K values are Contra 2, CSGO 4, Genshin Impact 4, DOTA2 5, DMC 6.
#include <array>
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "core/frame_profiler.h"
#include "game/tracegen.h"
#include "ml/kmeans.h"

using namespace cocg;

int main() {
  bench::banner("Fig. 14", "K-means SSE vs K, per game");

  TablePrinter table({"game", "K=1", "K=2", "K=3", "K=4", "K=5", "K=6",
                      "K=7", "K=8", "elbow K", "paper K"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "k", "sse"});

  const std::map<std::string, int> paper_k = {{"Contra", 2},
                                              {"CSGO", 4},
                                              {"Genshin Impact", 4},
                                              {"DOTA2", 5},
                                              {"Devil May Cry", 6}};

  for (const auto& spec : game::paper_suite()) {
    Rng rng(1234 ^ spec.id.value);
    // Profiling traces (lab runs across scripts/players).
    std::vector<telemetry::Trace> traces;
    for (int r = 0; r < 12; ++r) {
      const auto script = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
      traces.push_back(game::profile_run(
          spec, script, static_cast<std::uint64_t>(r % 6 + 1),
          rng.next_u64()));
    }
    // Frame points in normalized space.
    ml::PointSet points;
    const ResourceVector scale = default_norm_scale();
    for (const auto& t : traces) {
      for (const auto& fs : t.to_frame_slices()) {
        std::array<double, kNumDims> p{};
        for (std::size_t i = 0; i < kNumDims; ++i) {
          p[i] = fs.mean_usage.at(i) / scale.at(i);
        }
        points.add(p);
      }
    }
    const auto sse = ml::sse_curve(points, 8, rng, 6);
    core::ProfilerConfig pc;
    const int elbow = ml::pick_elbow(sse, pc.elbow_min_gain);

    std::vector<std::string> row{spec.name};
    for (std::size_t k = 0; k < 8; ++k) {
      row.push_back(k < sse.size() ? TablePrinter::fmt(sse[k], 3) : "-");
      if (k < sse.size()) {
        csv.push_back({spec.name, std::to_string(k + 1),
                       TablePrinter::fmt(sse[k], 6)});
      }
    }
    row.push_back(std::to_string(elbow));
    row.push_back(std::to_string(paper_k.at(spec.name)));
    table.add_row(row);
  }

  table.print(std::cout);
  bench::write_csv("fig14_kmeans_elbow", csv);
  std::cout << "\nExpected shape: sharp SSE drops up to the game's paper K,"
               " little change beyond (the Fig. 14 inflection points).\n";
  return 0;
}
