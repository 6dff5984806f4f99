// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the ML substrate: event-queue churn, whole-server contention
// resolution, session ticking, K-means fitting, tree training and the
// stage predictor's online inference.
//
// After the google-benchmark suite, main() runs a hand-timed
// compiled-inference harness (tree walk vs CompiledForest) writing
// BENCH_micro_inference.json. It exits non-zero only when the compiled
// forest stops matching the tree walk bit for bit, for DTC, RF or GBDT
// (GBDT's walk is an independent fit, WalkedGbdt).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/offline.h"
#include "game/library.h"
#include "game/plan.h"
#include "game/session.h"
#include "hw/contention.h"
#include "hw/server.h"
#include "ml/compiled.h"
#include "ml/gbdt.h"
#include "ml/kmeans.h"
#include "ml/random_forest.h"
#include "ml/tree.h"
#include "sim/engine.h"

namespace cocg {
namespace {

void BM_EventQueueChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.schedule((i * 7919) % 1000, [] {});
    }
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueChurn)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ResolveServer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  hw::ServerSpec spec;
  std::vector<hw::PinnedDraw> draws;
  for (int i = 0; i < n; ++i) {
    hw::PinnedDraw d;
    d.draw.sid = SessionId{static_cast<std::uint64_t>(i)};
    d.draw.demand = ResourceVector{30, 40, 2000, 2000};
    d.draw.allocation = spec.per_gpu_capacity();
    d.gpu_index = i % spec.num_gpus;
    draws.push_back(d);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::resolve_server(spec, draws));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ResolveServer)->Arg(2)->Arg(8)->Arg(32);

void BM_SessionFullRun(benchmark::State& state) {
  static const game::GameSpec spec = game::make_genshin();
  for (auto _ : state) {
    Rng rng(42);
    auto plan = game::generate_plan(spec, 0, 1, rng);
    game::GameSession s(SessionId{1}, &spec, 0, std::move(plan), rng.fork());
    TimeMs now = 0;
    s.begin(now);
    while (!s.finished()) {
      s.tick(now, s.demand());
      now += 1000;
    }
    benchmark::DoNotOptimize(s.mean_fps());
  }
}
BENCHMARK(BM_SessionFullRun);

void BM_KMeansFit(benchmark::State& state) {
  Rng rng(7);
  ml::PointSet pts;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < 200; ++i) {
      pts.add({b * 3.0 + rng.normal(0, 0.2), b * 2.0 + rng.normal(0, 0.2),
               rng.normal(0, 0.2), rng.normal(0, 0.2)});
    }
  }
  ml::KMeansConfig cfg;
  cfg.k = 5;
  for (auto _ : state) {
    Rng fit(13);
    benchmark::DoNotOptimize(ml::KMeans::fit(pts, cfg, fit));
  }
  state.SetItemsProcessed(state.iterations() * pts.size());
}
BENCHMARK(BM_KMeansFit);

void BM_TreeFit(benchmark::State& state) {
  Rng rng(9);
  ml::Dataset d({"a", "b", "c"});
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(0, 10), b = rng.uniform(0, 10),
                 c = rng.uniform(0, 10);
    d.add({a, b, c}, (a + b > 10.0 ? 1 : 0) + (c > 5.0 ? 1 : 0));
  }
  for (auto _ : state) {
    ml::DecisionTreeClassifier tree;
    tree.fit(d);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_TreeFit);

void BM_PredictorInference(benchmark::State& state) {
  static const std::vector<game::GameSpec> suite = {game::make_dota2()};
  static const core::TrainedGame tg = [] {
    core::OfflineConfig cfg;
    cfg.profiling_runs = 8;
    cfg.corpus_runs = 30;
    return core::train_game(suite[0], cfg);
  }();
  std::vector<int> hist{1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.predictor->predict_next(hist, 3, 0));
  }
}
BENCHMARK(BM_PredictorInference);

void BM_OfflineTrainGame(benchmark::State& state) {
  static const game::GameSpec spec = game::make_contra();
  for (auto _ : state) {
    core::OfflineConfig cfg;
    cfg.profiling_runs = 6;
    cfg.corpus_runs = 12;
    benchmark::DoNotOptimize(core::train_game(spec, cfg));
  }
}
BENCHMARK(BM_OfflineTrainGame);

// ---------------------------------------------------------------------------
// Compiled-inference harness (hand-timed; emits BENCH_micro_inference.json)
// ---------------------------------------------------------------------------

/// Synthetic multiclass stage-prediction-shaped dataset: a few threshold
/// rules over 8 features plus label noise, so trees of realistic depth
/// emerge.
ml::Dataset synth_dataset(std::size_t rows, int classes, Rng& rng) {
  ml::Dataset d({"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"});
  for (std::size_t i = 0; i < rows; ++i) {
    ml::FeatureRow x(8);
    for (auto& v : x) v = rng.uniform(0.0, 10.0);
    int label = (x[0] + x[1] > 10.0 ? 1 : 0) + (x[2] > 5.0 ? 2 : 0) +
                (x[3] + x[4] > 9.0 ? 1 : 0) + (x[5] > 7.0 ? 1 : 0);
    if (rng.uniform(0.0, 1.0) < 0.08) {
      label = static_cast<int>(rng.uniform_int(0, classes - 1));
    }
    d.add(x, label % classes);
  }
  return d;
}

/// Best-of-`reps` throughput of `body` over `rows` rows; `body` returns a
/// checksum that is fed to DoNotOptimize so nothing is dead-code-eliminated.
template <typename F>
double best_rows_per_s(std::size_t rows, int reps, F&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    double checksum = body();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    benchmark::DoNotOptimize(checksum);
    best = std::max(best, static_cast<double>(rows) / s);
  }
  return best;
}

/// GBDT's tree-walk side: the boosting loop rebuilt from RegressionTrees,
/// with scores updated and predictions made by tree walks. GbdtClassifier
/// fits straight into a CompiledForest, so its own predictions are the
/// compiled walk; this independent fit is what the compiled forest is
/// compared and timed against.
class WalkedGbdt {
 public:
  WalkedGbdt(const ml::Dataset& d, const ml::GbdtConfig& cfg)
      : lr_(cfg.learning_rate) {
    const auto k = static_cast<std::size_t>(d.num_classes());
    std::vector<double> prior(k, 1.0);
    for (std::size_t i = 0; i < d.size(); ++i) {
      prior[static_cast<std::size_t>(d.y(i))] += 1.0;
    }
    const double total = static_cast<double>(d.size() + k);
    for (double c : prior) base_.push_back(std::log(c / total));
    std::vector<std::vector<double>> score(d.size(), base_);
    std::vector<std::vector<double>> residual(k, std::vector<double>(d.size()));
    for (int round = 0; round < cfg.n_rounds; ++round) {
      for (std::size_t i = 0; i < d.size(); ++i) {
        std::vector<double> p = score[i];
        softmax(p);
        for (std::size_t c = 0; c < k; ++c) {
          residual[c][i] =
              (static_cast<std::size_t>(d.y(i)) == c ? 1.0 : 0.0) - p[c];
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        trees_.emplace_back(cfg.tree);
        trees_.back().fit(d.features(), residual[c]);
        for (std::size_t i = 0; i < d.size(); ++i) {
          score[i][c] += lr_ * trees_.back().predict(d.x(i));
        }
      }
    }
  }

  std::vector<double> predict_proba(const ml::FeatureRow& x) const {
    std::vector<double> s = raw(x);
    softmax(s);
    return s;
  }
  int predict(const ml::FeatureRow& x) const {
    const std::vector<double> s = raw(x);
    return static_cast<int>(std::max_element(s.begin(), s.end()) -
                            s.begin());
  }

 private:
  std::vector<double> raw(const ml::FeatureRow& x) const {
    std::vector<double> s = base_;
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      s[t % s.size()] += lr_ * trees_[t].predict(x);
    }
    return s;
  }
  static void softmax(std::vector<double>& s) {
    const double mx = *std::max_element(s.begin(), s.end());
    double total = 0.0;
    for (double& v : s) {
      v = std::exp(v - mx);
      total += v;
    }
    for (double& v : s) v /= total;
  }

  double lr_;
  std::vector<double> base_;
  std::vector<ml::RegressionTree> trees_;  ///< round-major, class-minor
};

struct InferenceResult {
  std::string model;
  std::size_t trees = 0;
  double treewalk_rows_per_s = 0.0;        ///< learner predict_proba per row
  double compiled_scalar_rows_per_s = 0.0; ///< predict_proba_into per row
  bool parity = true;  ///< compiled == learner, bit for bit, on every row
};

template <typename Legacy>
InferenceResult run_inference_bench(const std::string& name,
                                    const Legacy& legacy,
                                    const ml::CompiledForest& compiled,
                                    const std::vector<ml::FeatureRow>& rows,
                                    int reps) {
  InferenceResult res;
  res.model = name;
  res.trees = compiled.num_trees();
  const std::size_t n = rows.size();
  const auto k = static_cast<std::size_t>(compiled.num_classes());

  for (const auto& x : rows) {
    if (legacy.predict_proba(x) != compiled.predict_proba(x) ||
        legacy.predict(x) != compiled.predict(x)) {
      res.parity = false;
    }
  }

  res.treewalk_rows_per_s = best_rows_per_s(n, reps, [&] {
    double sum = 0.0;
    for (const auto& x : rows) sum += legacy.predict_proba(x)[0];
    return sum;
  });
  std::vector<double> scratch(k, 0.0);
  res.compiled_scalar_rows_per_s = best_rows_per_s(n, reps, [&] {
    double sum = 0.0;
    for (const auto& x : rows) {
      compiled.predict_proba_into(x, scratch);
      sum += scratch[0];
    }
    return sum;
  });
  return res;
}

int run_compiled_inference_harness() {
  bench::banner("micro_inference", "compiled vs tree-walk inference");
  constexpr std::size_t kTrainRows = 1500;
  constexpr std::size_t kEvalRows = 4000;
  constexpr int kClasses = 6;
  constexpr int kReps = 9;

  Rng rng(20240806);
  const ml::Dataset train = synth_dataset(kTrainRows, kClasses, rng);
  std::vector<ml::FeatureRow> eval_rows;
  eval_rows.reserve(kEvalRows);
  {
    const ml::Dataset held = synth_dataset(kEvalRows, kClasses, rng);
    for (std::size_t i = 0; i < held.size(); ++i) {
      eval_rows.push_back(held.x(i));
    }
  }

  ml::TreeConfig dtc_cfg;
  dtc_cfg.max_depth = 8;
  ml::DecisionTreeClassifier dtc(dtc_cfg);
  Rng fit_rng(1);
  dtc.fit(train, fit_rng);
  // Default RandomForestConfig is the paper-default 25-tree forest.
  ml::RandomForestClassifier rf;
  rf.fit(train, fit_rng);
  ml::GbdtClassifier gbdt;
  gbdt.fit(train);

  std::vector<InferenceResult> results;
  results.push_back(run_inference_bench(
      "DTC", dtc, ml::CompiledForest::compile(dtc), eval_rows, kReps));
  results.push_back(run_inference_bench(
      "RF-25", rf, ml::CompiledForest::compile(rf), eval_rows, kReps));
  results.push_back(run_inference_bench("GBDT", WalkedGbdt(train, {}),
                                        gbdt.forest(), eval_rows, kReps));

  bench::BenchJson json("micro_inference");
  json.set("train_rows", static_cast<double>(kTrainRows));
  json.set("eval_rows", static_cast<double>(kEvalRows));
  json.set("classes", static_cast<double>(kClasses));

  TablePrinter table({"model", "trees", "tree-walk rows/s",
                      "compiled scalar rows/s", "compiled vs walk",
                      "parity"});
  bool all_parity = true;
  for (const auto& r : results) {
    all_parity = all_parity && r.parity;
    const double speedup =
        r.compiled_scalar_rows_per_s / r.treewalk_rows_per_s;
    table.add_row({r.model, std::to_string(r.trees),
                   TablePrinter::fmt(r.treewalk_rows_per_s, 0),
                   TablePrinter::fmt(r.compiled_scalar_rows_per_s, 0),
                   TablePrinter::fmt(speedup, 2) + "x",
                   r.parity ? "exact" : "MISMATCH"});
    json.row()
        .set("model", r.model)
        .set("trees", static_cast<double>(r.trees))
        .set("treewalk_proba_rows_per_s", r.treewalk_rows_per_s)
        .set("compiled_scalar_proba_rows_per_s", r.compiled_scalar_rows_per_s)
        .set("speedup_scalar_vs_treewalk", speedup)
        .set("parity", r.parity ? 1.0 : 0.0);
  }
  table.print(std::cout);
  json.set("parity_all_models", all_parity ? 1.0 : 0.0);
  json.write();

  std::cout << (all_parity ? "PASS" : "FAIL")
            << ": compiled forests match the tree walks bit for"
               " bit (DTC, RF-25, GBDT): "
            << (all_parity ? "exact" : "BROKEN") << "\n";
  return all_parity ? 0 : 1;
}

}  // namespace
}  // namespace cocg

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return cocg::run_compiled_inference_harness();
}
