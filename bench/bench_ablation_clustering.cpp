// Ablation — clustering method (§V-D1).
//
// "We used the K-means method... K-means demonstrated significantly higher
// accuracy compared to other clustering methods like Graph Partitioning,
// which does not require the number of clusters."
//
// For each game: cluster the profiled frames with K-means (operator K)
// and with graph partitioning (no K), and score both against the
// ground-truth cluster labels using the Adjusted Rand Index.
#include <array>
#include <iostream>

#include "bench_util.h"
#include "game/tracegen.h"
#include "ml/graph_cluster.h"
#include "ml/kmeans.h"

using namespace cocg;

int main() {
  bench::banner("Ablation (§V-D1)", "K-means vs graph partitioning");

  TablePrinter table({"game", "true K", "K-means ARI", "graph ARI",
                      "graph #clusters"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"game", "true_k", "kmeans_ari", "graph_ari", "graph_k"});

  for (const auto& spec : bench::paper_suite_static()) {
    Rng rng(6100 + spec.id.value);
    ml::PointSet points;
    std::vector<int> truth;
    const ResourceVector scale = default_norm_scale();
    for (int r = 0; r < 10; ++r) {
      const auto script = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
      const auto trace = game::profile_run(
          spec, script, static_cast<std::uint64_t>(r % 4 + 1),
          rng.next_u64());
      for (const auto& fs : trace.to_frame_slices()) {
        std::array<double, kNumDims> p{};
        for (std::size_t d = 0; d < kNumDims; ++d) {
          p[d] = fs.mean_usage.at(d) / scale.at(d);
        }
        points.add(p);
        truth.push_back(fs.true_cluster);
      }
    }

    ml::KMeansConfig kcfg;
    kcfg.k = spec.num_clusters();
    kcfg.restarts = 6;
    const auto km = ml::KMeans::fit(points, kcfg, rng);
    const auto gc = ml::graph_cluster(points);

    const double ari_km = ml::adjusted_rand_index(truth, km.assignment);
    const double ari_gc = ml::adjusted_rand_index(truth, gc.assignment);
    table.add_row({spec.name, std::to_string(spec.num_clusters()),
                   TablePrinter::fmt(ari_km, 3),
                   TablePrinter::fmt(ari_gc, 3),
                   std::to_string(gc.num_clusters)});
    csv.push_back({spec.name, std::to_string(spec.num_clusters()),
                   TablePrinter::fmt(ari_km, 4),
                   TablePrinter::fmt(ari_gc, 4),
                   std::to_string(gc.num_clusters)});
  }
  table.print(std::cout);
  bench::write_csv("ablation_clustering", csv);
  std::cout << "\nExpected: K-means tracks the ground-truth frame clusters"
               " more closely (higher ARI) than threshold-graph"
               " partitioning, which over- or under-merges.\n";
  return 0;
}
