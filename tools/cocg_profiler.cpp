// cocg_profiler — command-line profiling utility.
//
//   cocg_profiler profile <game> <out.cocg> [runs] [seed]
//   cocg_profiler train <game> <out.cocgm> [profiling_runs] [corpus_runs]
//                                          [seed]
//   cocg_profiler train-suite <dir> [profiling_runs] [corpus_runs] [seed]
//   cocg_profiler show <profile.cocg | bundle.cocgm>
//   cocg_profiler migrate <in.cocg> <out.cocg> <baseline|budget|flagship>
//                                              <baseline|budget|flagship>
//   cocg_profiler plan [baseline|budget|flagship]
//
// `profile` runs laboratory play-throughs of a suite title, builds the
// frame-cluster + stage-type catalog (§IV-A), and saves it. `train` runs
// the full offline pipeline (profile + predictor) and saves the game
// bundle a scheduler can load instead of retraining ("train once",
// §IV-B1); `train-suite` does that for every paper game into a directory
// `cocg_colocate`/`cocg_fleet` accept via --models-in. `show` pretty-
// prints a saved profile or bundle. `migrate` rescales a profile between
// SKUs (§IV-D). `plan` trains the whole suite and prints the maximal game
// mixes one GPU view of the SKU can host under the distributor's
// expected-demand rule. Game names: DOTA2, CSGO, "Genshin Impact",
// "Devil May Cry", Contra.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/frame_profiler.h"
#include "core/capacity_planner.h"
#include "core/migration.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/profile_io.h"
#include "game/library.h"
#include "game/tracegen.h"
#include "obs/cli.h"

using namespace cocg;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  cocg_profiler profile <game> <out.cocg> [runs] [seed]\n"
            << "  cocg_profiler train <game> <out.cocgm> [profiling_runs]"
               " [corpus_runs] [seed]\n"
            << "  cocg_profiler train-suite <dir> [profiling_runs]"
               " [corpus_runs] [seed]\n"
            << "  cocg_profiler show <profile.cocg | bundle.cocgm>\n"
            << "  cocg_profiler migrate <in.cocg> <out.cocg> <from> <to>\n"
            << "     (<from>/<to> in {baseline, budget, flagship})\n"
            << "  cocg_profiler plan [baseline|budget|flagship]\n"
            << obs::cli_usage();
  return 2;
}

hw::ServerSpec sku_by_name(const std::string& name) {
  if (name == "baseline") return hw::baseline_sku();
  if (name == "budget") return hw::budget_sku();
  if (name == "flagship") return hw::flagship_sku();
  throw std::runtime_error("unknown SKU: " + name);
}

void print_profile(const core::GameProfile& p) {
  std::cout << "game: " << p.game_name << "\n"
            << "peak demand: " << p.peak_demand.str() << "\n";
  TablePrinter clusters({"cluster", "CPU%", "GPU%", "VRAM MB", "RAM MB",
                         "frames", "loading?"});
  for (const auto& c : p.clusters) {
    clusters.add_row({std::to_string(c.id),
                      TablePrinter::fmt(c.centroid.cpu(), 1),
                      TablePrinter::fmt(c.centroid.gpu(), 1),
                      TablePrinter::fmt(c.centroid.gpu_mem(), 0),
                      TablePrinter::fmt(c.centroid.ram(), 0),
                      std::to_string(c.frames), c.loading ? "yes" : "no"});
  }
  clusters.print(std::cout);
  TablePrinter stages({"type", "clusters", "kind", "peak GPU%",
                       "mean dwell (s)", "seen"});
  for (const auto& st : p.stage_types) {
    std::string sig;
    for (std::size_t i = 0; i < st.clusters.size(); ++i) {
      sig += (i ? "+" : "") + std::to_string(st.clusters[i]);
    }
    stages.add_row({std::to_string(st.id), sig,
                    st.loading ? "loading" : "execution",
                    TablePrinter::fmt(st.peak_demand.gpu(), 1),
                    TablePrinter::fmt(ms_to_sec(st.mean_duration_ms), 0),
                    std::to_string(st.occurrences)});
  }
  stages.print(std::cout);
}

int cmd_profile(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string game_name = argv[2];
  const std::string out_path = argv[3];
  const int runs = argc > 4 ? std::max(1, std::atoi(argv[4])) : 12;
  const std::uint64_t seed =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 2024;

  const game::GameSpec spec = game::game_by_name(game_name);
  std::cout << "profiling " << spec.name << " over " << runs
            << " laboratory runs...\n";
  std::vector<std::vector<ResourceVector>> frames;
  Rng rng(seed);
  for (int r = 0; r < runs; ++r) {
    const auto script = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.scripts.size()) - 1));
    frames.push_back(game::profile_run_frame_means(
                         spec, script, static_cast<std::uint64_t>(r % 6 + 1),
                         rng.next_u64())
                         .means);
  }
  core::ProfilerConfig cfg;
  cfg.forced_k = spec.num_clusters();
  core::FrameProfiler profiler(cfg);
  const auto out = profiler.profile(spec.name, frames, rng);
  print_profile(out.profile);
  core::save_profile(out.profile, out_path);
  std::cout << "saved to " << out_path << "\n";
  return 0;
}

void print_bundle_summary(const core::GameBundle& b) {
  const auto& trained = b.trained;
  TablePrinter model({"bundle field", "value"});
  model.add_row({"model", ml::model_kind_name(b.cfg.model)});
  model.add_row({"held-out accuracy P",
                 TablePrinter::fmt_pct(100 * trained.accuracy, 1)});
  model.add_row({"pooled trees", std::to_string(trained.pooled->num_trees())});
  model.add_row(
      {"pooled nodes", std::to_string(trained.pooled->node_count())});
  model.add_row(
      {"per-player models", std::to_string(trained.per_player.size())});
  model.add_row({"training runs in corpus",
                 std::to_string(b.corpus->size())});
  model.add_row({"replace_model available",
                 b.corpus->empty() ? "no (corpus stripped)" : "yes"});
  model.add_row({"chosen K", std::to_string(b.chosen_k)});
  model.add_row({"mean run duration (s)",
                 TablePrinter::fmt(ms_to_sec(b.mean_run_duration_ms), 0)});
  model.print(std::cout);
}

int cmd_train(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string out_path = argv[3];
  core::OfflineConfig cfg;
  cfg.profiling_runs = argc > 4 ? std::max(1, std::atoi(argv[4])) : 12;
  cfg.corpus_runs = argc > 5 ? std::max(1, std::atoi(argv[5])) : 60;
  cfg.seed = argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 2024;

  const game::GameSpec spec = game::game_by_name(argv[2]);
  std::cout << "training " << spec.name << " (" << cfg.profiling_runs
            << " profiling runs, " << cfg.corpus_runs
            << " corpus runs, seed " << cfg.seed << ")...\n";
  const auto tg = core::train_game(spec, cfg);
  const core::GameBundle& bundle = tg.bundle();
  core::save_bundle_file(bundle, out_path);
  print_bundle_summary(bundle);
  std::cout << "saved bundle to " << out_path << "\n";
  return 0;
}

int cmd_train_suite(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string dir = argv[2];
  core::OfflineConfig cfg;
  cfg.profiling_runs = argc > 3 ? std::max(1, std::atoi(argv[3])) : 12;
  cfg.corpus_runs = argc > 4 ? std::max(1, std::atoi(argv[4])) : 60;
  cfg.seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 2024;

  static const std::vector<game::GameSpec> suite = game::paper_suite();
  std::cout << "training the paper suite (" << cfg.profiling_runs
            << " profiling runs, " << cfg.corpus_runs
            << " corpus runs, seed " << cfg.seed << ")...\n";
  core::ModelBank bank;
  TablePrinter table({"game", "model", "accuracy P", "trees"});
  for (const auto& [name, tg] : core::train_suite(suite, cfg)) {
    bank.add_trained(tg);
    table.add_row(
        {name, ml::model_kind_name(tg.predictor->model_kind()),
         TablePrinter::fmt_pct(100 * tg.predictor->accuracy(), 1),
         std::to_string(tg.bundle().trained.pooled->num_trees())});
  }
  table.print(std::cout);
  const auto paths = bank.save_dir(dir);
  std::cout << "wrote " << paths.size() << " bundle(s) to " << dir << "\n";
  return 0;
}

int cmd_show(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[2];
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string first;
  std::getline(in, first);
  in.clear();
  in.seekg(0);
  if (first.rfind("cocg-bundle-", 0) == 0) {
    const auto bundle = core::read_bundle(in);
    print_profile(*bundle.profile);
    print_bundle_summary(bundle);
  } else {
    print_profile(core::read_profile(in));
  }
  return 0;
}

int cmd_migrate(int argc, char** argv) {
  if (argc < 6) return usage();
  const auto profile = core::load_profile(argv[2]);
  const auto from = sku_by_name(argv[4]);
  const auto to = sku_by_name(argv[5]);
  const auto migrated = core::migrate_profile(profile, from, to);
  core::save_profile(migrated, argv[3]);
  std::cout << "migrated " << profile.game_name << " from " << from.name
            << " to " << to.name << " -> " << argv[3] << "\n";
  print_profile(migrated);
  return 0;
}

int cmd_plan(int argc, char** argv) {
  const hw::ServerSpec sku =
      argc > 2 ? sku_by_name(argv[2]) : hw::baseline_sku();
  std::cout << "training the suite, planning one GPU view of " << sku.name
            << "...\n";
  static const std::vector<game::GameSpec> suite = game::paper_suite();
  core::OfflineConfig cfg;
  cfg.profiling_runs = 10;
  cfg.corpus_runs = 20;
  const auto models = core::train_suite(suite, cfg);
  core::CapacityPlanner planner(&models);

  TablePrinter caps({"game", "expected GPU%", "max concurrent / view"});
  for (const auto& [name, tg] : models) {
    caps.add_row({name,
                  TablePrinter::fmt(planner.expected_demand(name).gpu(), 1),
                  std::to_string(planner.max_concurrent(name, sku))});
  }
  caps.print(std::cout);

  TablePrinter mixes({"maximal mix", "expected GPU%", "headroom"});
  for (const auto& mix : planner.maximal_mixes(sku)) {
    std::string label;
    for (std::size_t i = 0; i < mix.games.size(); ++i) {
      label += (i ? " + " : "") + mix.games[i];
    }
    mixes.add_row({label, TablePrinter::fmt(mix.expected_total.gpu(), 1),
                   TablePrinter::fmt_pct(100 * mix.headroom, 1)});
  }
  mixes.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Strip the observability flags, then hand the subcommands a rebuilt
    // argv so their positional parsing is unchanged.
    std::vector<std::string> args(argv + 1, argv + argc);
    const obs::CliOptions obs_opts = obs::strip_cli_flags(args);
    std::vector<char*> av{argv[0]};
    for (auto& s : args) av.push_back(s.data());
    const int ac = static_cast<int>(av.size());
    if (ac < 2) return usage();
    const std::string cmd = av[1];

    int rc = -1;
    if (cmd == "profile") rc = cmd_profile(ac, av.data());
    else if (cmd == "train") rc = cmd_train(ac, av.data());
    else if (cmd == "train-suite") rc = cmd_train_suite(ac, av.data());
    else if (cmd == "show") rc = cmd_show(ac, av.data());
    else if (cmd == "migrate") rc = cmd_migrate(ac, av.data());
    else if (cmd == "plan") rc = cmd_plan(ac, av.data());
    else return usage();
    if (rc == 0) obs::write_outputs(obs_opts);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
