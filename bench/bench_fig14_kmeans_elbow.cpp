// Fig. 14 — "Clustering result with different K value."
//
// For each of the four figure games (the paper plots CSGO, DOTA2, Genshin
// Impact, Devil May Cry; Contra's trivial 2-cluster curve is included for
// completeness), run K-means over the profiled 5-second frames for
// K = 1..core::kElbowKMax (8) and print the SSE series plus the
// elbow-chosen K.
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

  std::vector<std::string> header{"game"};
  for (int k = 1; k <= core::kElbowKMax; ++k) {
    header.push_back("K=" + std::to_string(k));
  }
  header.push_back("elbow K");
  header.push_back("paper K");
  TablePrinter table(std::move(header));
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "k", "sse"});

  const std::map<std::string, int> paper_k = {{"Contra", 2},
                                              {"CSGO", 4},
                                              {"Genshin Impact", 4},
                                              {"DOTA2", 5},
                                              {"Devil May Cry", 6}};

  for (const auto& spec : game::paper_suite()) {
    Rng rng(1234 ^ spec.id.value);
    // Profiling runs' frames (lab runs across scripts/players), as points
    // in normalized space.
    ml::PointSet points;
    const ResourceVector scale = default_norm_scale();
    for (int r = 0; r < 12; ++r) {
      const auto script = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
      const auto run = game::profile_run_frame_means(
          spec, script, static_cast<std::uint64_t>(r % 6 + 1),
          rng.next_u64());
      for (const auto& m : run.means) {
        std::array<double, kNumDims> p{};
        for (std::size_t i = 0; i < kNumDims; ++i) {
          p[i] = m.at(i) / scale.at(i);
        }
        points.add(p);
      }
    }
    const auto sse =
        ml::sse_curve(points, core::kElbowKMax, rng, core::kKMeansRestarts);
    const int elbow = ml::pick_elbow(sse, core::kElbowMinGain);

    std::vector<std::string> row{spec.name};
    for (std::size_t k = 0; k < static_cast<std::size_t>(core::kElbowKMax);
         ++k) {
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
