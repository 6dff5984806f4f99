// bench_tick — simulation hot-loop tick throughput.
//
// The fleet layer parallelizes across shards; this bench tracks how fast a
// *single* shard's inner loop runs. It pins a fixed population of
// long-running sessions (a synthetic "marathon" game whose one execution
// stage outlasts the measured window, so there is no admission/reap churn)
// and times CloudPlatform::advance_until over a steady-state window at
// 1 / 8 / 32 servers.
//
// Two workload flavours per server count:
//  - "noisy": the default stochastic models (measurement noise, demand
//    jitter, network jitter). Reported for context; about nine normal
//    draws per session tick, whose values the determinism contract pins.
//  - "det": all noise sources zeroed. This isolates the simulation
//    machinery (event queue, session table, resolver, telemetry) that the
//    hot-path work targets, and exercises the noise-off fast paths.
//
// Emits BENCH_tick.json. With --baseline <json> the bench also gates
// itself: it exits non-zero unless ticks_per_sec_s32_det is at least
// --min-speedup (default 2.0) times the baseline's recorded value. CI runs
// the gate against bench/baselines/BENCH_tick_baseline.json, recorded at
// the commit before the hot-path rewrite (see docs/performance.md).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "platform/cloud_platform.h"

using namespace cocg;

namespace {

/// One loading stage, then a single execution stage that dwells for days:
/// the session population is constant over any realistic window.
game::GameSpec marathon_spec(bool det) {
  game::GameSpec g;
  g.id = GameId{901};
  g.name = "Marathon";
  g.category = game::GameCategory::kMoba;

  game::FrameClusterSpec load;
  load.id = 0;
  load.name = "load";
  load.centroid = ResourceVector{28.0, 6.0, 700.0, 420.0};
  load.jitter = ResourceVector{2.0, 0.8, 12.0, 6.0};
  load.fps_base = 0.0;

  game::FrameClusterSpec play;
  play.id = 1;
  play.name = "play";
  play.centroid = ResourceVector{10.0, 20.0, 820.0, 450.0};
  play.jitter = ResourceVector{1.2, 1.6, 10.0, 5.0};
  play.fps_base = 60.0;
  if (det) {
    load.jitter = ResourceVector{};
    play.jitter = ResourceVector{};
  }
  g.clusters = {load, play};

  game::StageTypeSpec loading;
  loading.id = 0;
  loading.name = "loading";
  loading.kind = game::StageKind::kLoading;
  loading.clusters = {0};
  loading.min_dwell_ms = 5000;
  loading.max_dwell_ms = 5000;

  game::StageTypeSpec exec;
  exec.id = 1;
  exec.name = "endless";
  exec.kind = game::StageKind::kExecution;
  exec.clusters = {1};
  exec.min_dwell_ms = 48LL * 3600 * 1000;
  exec.max_dwell_ms = 48LL * 3600 * 1000;
  g.stage_types = {loading, exec};
  g.loading_stage_type = 0;

  game::ScriptSpec script;
  script.name = "endless";
  script.segments.push_back(game::ScriptSegment{1, 1, 1, 0.0});
  g.scripts = {script};
  return g;
}

/// Fills every server with a fixed number of sessions and then refuses all
/// further work: pure hot-loop measurement, no admission/control cost.
class PinScheduler final : public platform::Scheduler {
 public:
  PinScheduler(int per_server, ResourceVector alloc)
      : per_server_(per_server), alloc_(alloc) {}

  std::string name() const override { return "pin"; }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest&) override {
    for (ServerId id : view.server_ids()) {
      const auto& srv = view.server(id);
      if (static_cast<int>(srv.session_count()) >= per_server_) continue;
      // Choose the least-utilized GPU view the allocation fits on.
      int best = -1;
      double best_util = 2.0;
      for (int gq = 0; gq < srv.spec().num_gpus; ++gq) {
        const double u = srv.utilization_on_gpu(gq);
        if (alloc_.fits_within(srv.free_on_gpu(gq)) && u < best_util) {
          best = gq;
          best_util = u;
        }
      }
      if (best >= 0) return platform::Placement{id, best, alloc_};
    }
    return std::nullopt;
  }

 private:
  int per_server_;
  ResourceVector alloc_;
};

struct TickResult {
  int servers = 0;
  std::size_t sessions = 0;
  double wall_s = 0.0;
  double ticks_per_sec = 0.0;          ///< hardware ticks / wall second
  double session_ticks_per_sec = 0.0;  ///< sessions advanced / wall second
};

struct Config {
  int servers;
  DurationMs ticks;
  bool obs;
  bool det;
  std::string key;  ///< top-level ticks_per_sec key ("" = row only)
};

TickResult run_config(const Config& c, int sessions_per_server) {
  obs::reset();
  obs::set_enabled(c.obs);

  platform::PlatformConfig cfg;
  cfg.seed = 7001;
  if (c.det) {
    cfg.measurement_noise_rel = 0.0;
    cfg.streaming.network_jitter_ms = 0.0;
  }
  const game::GameSpec spec = marathon_spec(c.det);
  // 8 sessions per 2-GPU server: CPU 8x11 = 88 of 100, GPU 4x22 = 88 per
  // device. Allocations leave headroom so contention stays unsaturated.
  const ResourceVector alloc{11.0, 22.0, 900.0, 500.0};
  auto sched = std::make_unique<PinScheduler>(sessions_per_server, alloc);
  platform::CloudPlatform cloud(cfg, std::move(sched));

  hw::ServerSpec sku;  // default 2-GPU baseline SKU
  for (int s = 0; s < c.servers; ++s) cloud.add_server(sku);
  const int want = c.servers * sessions_per_server;
  for (int i = 0; i < want; ++i) {
    cloud.submit(&spec, 0, static_cast<std::uint64_t>(i + 1));
  }

  // Warm past the loading stage into the endless execution stage. The
  // horizon must exceed warm + measure or advance_until would silently
  // stop ticking at the experiment end and inflate ticks/s.
  const DurationMs warm_ms = 20 * cfg.tick_ms;
  cloud.begin(warm_ms + (c.ticks + 20) * cfg.tick_ms);
  cloud.advance_until(warm_ms);
  if (cloud.running_sessions() != static_cast<std::size_t>(want)) {
    std::cerr << "bench_tick: expected " << want << " pinned sessions, have "
              << cloud.running_sessions() << "\n";
    std::exit(2);
  }

  const TimeMs t0 = warm_ms;
  const TimeMs t1 = t0 + c.ticks * cfg.tick_ms;
  const auto wall0 = std::chrono::steady_clock::now();
  cloud.advance_until(t1);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  cloud.finish();

  TickResult r;
  r.servers = c.servers;
  r.sessions = cloud.running_sessions();
  r.wall_s = wall_s;
  r.ticks_per_sec = static_cast<double>(c.ticks) / wall_s;
  r.session_ticks_per_sec =
      static_cast<double>(c.ticks) *
      static_cast<double>(r.sessions) / wall_s;
  obs::set_enabled(false);
  return r;
}

/// Minimal extraction of a top-level numeric field from a BenchJson file.
double json_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_tick: cannot open baseline " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) {
    std::cerr << "bench_tick: baseline " << path << " lacks key " << key
              << "\n";
    std::exit(2);
  }
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  double min_speedup = 2.0;
  int repeats = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (repeats < 1) repeats = 1;
    } else {
      std::cerr << "usage: bench_tick [--baseline BENCH_tick.json]"
                   " [--min-speedup X] [--repeats N]\n";
      return 2;
    }
  }

  bench::banner("tick", "hot-loop tick throughput at steady state");
  constexpr int kPerServer = 8;

  bench::BenchJson json("tick");
  json.set("sessions_per_server", static_cast<double>(kPerServer));

  TablePrinter table({"servers", "sessions", "noise", "obs",
                      "measured ticks", "wall s", "ticks/s",
                      "session-ticks/s"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"servers", "sessions", "noise", "obs", "wall_s",
                 "ticks_per_sec", "session_ticks_per_sec"});

  const std::vector<Config> configs = {
      {1, 60000, false, false, "ticks_per_sec_s1"},
      {8, 12000, false, false, "ticks_per_sec_s8"},
      {32, 4000, false, false, "ticks_per_sec_s32"},
      {32, 4000, true, false, ""},
      {32, 4000, false, true, "ticks_per_sec_s32_det"}};

  double s32_det = 0.0;
  for (const auto& c : configs) {
    // Best of N trials: each trial is a deterministic replay of the same
    // simulation, so the fastest one is the least-perturbed measurement of
    // the code (shared machines easily add ±20% of scheduler noise).
    TickResult r = run_config(c, kPerServer);
    for (int rep = 1; rep < repeats; ++rep) {
      const TickResult t = run_config(c, kPerServer);
      if (t.ticks_per_sec > r.ticks_per_sec) r = t;
    }
    if (c.key == "ticks_per_sec_s32_det") s32_det = r.ticks_per_sec;
    const std::string obs_label = c.obs ? "on" : "off";
    const std::string noise_label = c.det ? "off" : "on";
    table.add_row({std::to_string(r.servers), std::to_string(r.sessions),
                   noise_label, obs_label,
                   std::to_string(c.ticks), TablePrinter::fmt(r.wall_s, 3),
                   TablePrinter::fmt(r.ticks_per_sec, 0),
                   TablePrinter::fmt(r.session_ticks_per_sec, 0)});
    csv.push_back({std::to_string(r.servers), std::to_string(r.sessions),
                   noise_label, obs_label,
                   TablePrinter::fmt(r.wall_s, 4),
                   TablePrinter::fmt(r.ticks_per_sec, 1),
                   TablePrinter::fmt(r.session_ticks_per_sec, 1)});
    json.row()
        .set("servers", static_cast<double>(r.servers))
        .set("sessions", static_cast<double>(r.sessions))
        .set("noise", noise_label)
        .set("obs", obs_label)
        .set("measured_ticks", static_cast<double>(c.ticks))
        .set("wall_s", r.wall_s)
        .set("ticks_per_sec", r.ticks_per_sec)
        .set("session_ticks_per_sec", r.session_ticks_per_sec);
    if (!c.key.empty()) json.set(c.key, r.ticks_per_sec);
  }
  table.print(std::cout);
  json.write();
  bench::write_csv("tick", csv);

  if (!baseline_path.empty()) {
    const double base = json_field(baseline_path, "ticks_per_sec_s32_det");
    const double speedup = base > 0.0 ? s32_det / base : 0.0;
    std::cout << "\nticks/s at 32 servers (det): "
              << TablePrinter::fmt(s32_det, 0) << " vs baseline "
              << TablePrinter::fmt(base, 0) << " — "
              << TablePrinter::fmt(speedup, 2) << "x (gate >= "
              << TablePrinter::fmt(min_speedup, 2) << "x)\n";
    if (speedup < min_speedup) {
      std::cout << "bench_tick: FAIL — below the gate\n";
      return 1;
    }
    std::cout << "bench_tick: PASS\n";
  }
  return 0;
}
