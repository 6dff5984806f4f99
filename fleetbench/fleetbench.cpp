// fleetbench — end-to-end benchmark of the sharded CoCG fleet.
//
//   fleetbench --workload saturated|light|diurnal --seed N --seconds T
//              --trace 0|1
//
// One repetition is a complete run as a user would make it: generate an
// arrival trace, train the model suite into a ModelBank, build an empty
// 4-shard fleet, bind the trace (re-routed by the least-loaded policy),
// then simulate the horizon. Set-up is timed apart from the run, so work
// moved into set-up shows in setup_s and not in sim_s_per_wall_s. A run
// expands the seed into several independent traces and repeats whole
// rounds — one repetition per trace — until T seconds have passed.
//
// --trace 0 runs the plain CocgScheduler and reports the end-to-end
// metrics. --trace 1 alternates such runs with traced ones — a timing
// decorator around the scheduler, the stage profiler and the metric
// counters switched on — and reports the per-layer metrics. Every run is
// checked: request conservation, and a canonical report byte-identical to
// the first plain run's (traced runs included, which proves the decorator
// and the tracing leave every decision unchanged). The last stdout line is
// the JSON result; README.md lists the metrics.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/cocg_scheduler.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "traffic/generator.h"

using namespace cocg;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---- workloads ----------------------------------------------------------

constexpr int kShards = 4;
constexpr int kGpusPerServer = 2;
/// Models are pinned like a shipped model set; the seed varies traffic only.
constexpr std::uint64_t kTrainSeed = 42;

struct Workload {
  const char* name;
  int servers;
  traffic::Pattern pattern;
  double arrivals_per_hour;  ///< aggregate over the five paper games
  int minutes;
  fleet::RunnerKind runner;
  int threads;
  /// Independent traces per run, expanded from the seed. One trace's host
  /// cost and outcomes swing by 10-25% with the seed (admission dynamics
  /// are chaotic); pooling many short traces keeps runs comparable.
  std::size_t traces;
};

// Why each exists is in README.md: `saturated` is admission-bound with a
// queue that grows all run, `light` admits everything at once so the tick
// path and control loop dominate, and `diurnal` fills and drains its queue
// every hour under the work-stealing runner.
const Workload kWorkloads[] = {
    {"saturated", 64, traffic::Pattern::kPoisson, 6000.0, 10,
     fleet::RunnerKind::kLockstep, 1, 16},
    {"light", 256, traffic::Pattern::kPoisson, 1000.0, 60,
     fleet::RunnerKind::kLockstep, 2, 8},
    {"diurnal", 64, traffic::Pattern::kDiurnal, 500.0, 60,
     fleet::RunnerKind::kSteal, 2, 6},
};
constexpr double kDiurnalAmplitude = 0.9;
constexpr DurationMs kDiurnalPeriodMs = 60 * 60 * 1000;

const std::vector<game::GameSpec>& suite() {
  static const std::vector<game::GameSpec> s = game::paper_suite();
  return s;
}

// ---- timing decorator ---------------------------------------------------

/// What the decorator records on one shard.
struct CoreStats {
  std::vector<double> admit_us;    ///< one entry per admit() call
  std::vector<double> control_us;  ///< one entry per control() call
  std::uint64_t admit_accepted = 0;
  /// Rejections of a request that had already been rejected once.
  std::uint64_t admit_rerejects = 0;
  int replacements = 0;
  double replace_ms = 0.0;  ///< control() calls during which a model rotated
  double hooks_ms = 0.0;    ///< on_session_start + on_session_end
};

/// Forwards every Scheduler call to the CoCG scheduler and times it. It
/// never alters a decision, so a run through it must report the same bytes
/// as a run without it.
class TimedScheduler final : public platform::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<core::CocgScheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override {
    const auto t0 = Clock::now();
    auto placement = inner_->admit(view, req);
    stats_.admit_us.push_back(1e3 * ms_between(t0, Clock::now()));
    if (placement) {
      ++stats_.admit_accepted;
    } else if (!rejected_.insert(req.id.value).second) {
      ++stats_.admit_rerejects;
    }
    return placement;
  }

  void control(platform::PlatformView& view) override {
    const int before = inner_->model_replacements();
    const auto t0 = Clock::now();
    inner_->control(view);
    const double ms = ms_between(t0, Clock::now());
    stats_.control_us.push_back(1e3 * ms);
    if (inner_->model_replacements() != before) {
      stats_.replacements += inner_->model_replacements() - before;
      stats_.replace_ms += ms;
    }
  }

  void on_session_start(platform::PlatformView& view, SessionId sid) override {
    const auto t0 = Clock::now();
    inner_->on_session_start(view, sid);
    stats_.hooks_ms += ms_between(t0, Clock::now());
  }

  void on_session_end(platform::PlatformView& view, SessionId sid) override {
    const auto t0 = Clock::now();
    inner_->on_session_end(view, sid);
    stats_.hooks_ms += ms_between(t0, Clock::now());
  }

  const CoreStats& stats() const { return stats_; }

 private:
  std::unique_ptr<core::CocgScheduler> inner_;
  std::unordered_set<std::uint64_t> rejected_;
  CoreStats stats_;
};

// ---- one repetition -----------------------------------------------------

/// Forget the process's memory high-water mark (Linux), so the next
/// reading is the peak of what follows.
void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back first, so history does not count
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in KiB
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

struct Rep {
  std::size_t trace_index = 0;  ///< which of the run's traces
  bool traced = false;
  // Set-up parts, host milliseconds.
  double generate_ms = 0.0;
  double train_ms = 0.0;
  double build_ms = 0.0;
  double bind_ms = 0.0;
  // fleet.run() only, split at the first barrier past half the horizon.
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double first_wall_ms = 0.0;
  double first_sim_s = 0.0;
  double second_wall_ms = 0.0;
  double second_sim_s = 0.0;
  double peak_rss_mb = 0.0;  ///< high-water mark of this repetition
  fleet::FleetReport report;
  std::string canonical;  ///< report_json with stage_costs cleared
  bool conserved = false;
  // Barrier observations.
  std::size_t queue_hwm = 0;
  std::size_t queue_drains = 0;  ///< barriers where a non-empty queue emptied
  // Traced repetitions only.
  std::vector<CoreStats> core;  ///< one per shard
  fleet::Fleet::ExecutorStats exec;
  std::uint64_t hardware_ticks = 0;
  std::uint64_t session_ticks = 0;

  double setup_ms() const {
    return generate_ms + train_ms + build_ms + bind_ms;
  }
};

Rep run_once(const Workload& w, std::size_t trace_index, std::uint64_t seed,
             bool traced) {
  reset_peak_rss();
  Rep r;
  r.trace_index = trace_index;
  r.traced = traced;
  const DurationMs horizon = static_cast<DurationMs>(w.minutes) * 60 * 1000;
  std::vector<const game::GameSpec*> games;
  for (const auto& g : suite()) games.push_back(&g);

  traffic::GeneratorConfig gcfg;
  gcfg.pattern = w.pattern;
  gcfg.duration_ms = horizon;
  gcfg.arrivals_per_hour = w.arrivals_per_hour;
  gcfg.games = games;
  gcfg.seed = seed;
  gcfg.diurnal_amplitude = kDiurnalAmplitude;
  gcfg.diurnal_period_ms = kDiurnalPeriodMs;
  const auto t0 = Clock::now();
  const traffic::Trace trace = traffic::generate_trace(gcfg);
  const auto t1 = Clock::now();

  // The offline settings cocg_fleet trains with.
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 8;
  ocfg.corpus_runs = 40;
  ocfg.seed = kTrainSeed;
  core::ModelBank bank;
  for (const auto& [name, tg] : core::train_suite(suite(), ocfg)) {
    bank.add_trained(tg);
  }
  const auto t2 = Clock::now();

  fleet::FleetConfig fcfg;
  fcfg.shards = kShards;
  fcfg.threads = w.threads;
  fcfg.runner = w.runner;
  fcfg.policy = fleet::RouterPolicy::kLeastLoaded;
  fcfg.seed = SplitMix64(seed).next();
  std::vector<const TimedScheduler*> timed(kShards, nullptr);
  fleet::Fleet fleet(
      fcfg, [&](int shard) -> std::unique_ptr<platform::Scheduler> {
        auto cocg = std::make_unique<core::CocgScheduler>(
            bank.instantiate_suite(suite()));
        if (!traced) return cocg;
        auto decorated = std::make_unique<TimedScheduler>(std::move(cocg));
        timed[static_cast<std::size_t>(shard)] = decorated.get();
        return decorated;
      });
  hw::ServerSpec spec;
  spec.num_gpus = kGpusPerServer;
  for (int i = 0; i < w.servers; ++i) fleet.add_server(spec);
  const auto t3 = Clock::now();
  const std::size_t bound =
      fleet.add_trace_arrivals(trace, games, /*use_recorded_routing=*/false);
  const auto t4 = Clock::now();
  r.generate_ms = ms_between(t0, t1);
  r.train_ms = ms_between(t1, t2);
  r.build_ms = ms_between(t2, t3);
  r.bind_ms = ms_between(t3, t4);

  Clock::time_point run_start;
  Clock::time_point mid_wall;
  TimeMs mid_t = 0;
  bool queue_was_full = false;
  fleet.set_barrier_hook([&](TimeMs t) {
    if (mid_t == 0 && t >= horizon / 2) {
      mid_t = t;
      mid_wall = Clock::now();
    }
    std::size_t queued = 0;
    for (const auto& load : fleet.loads()) queued += load.queued;
    r.queue_hwm = std::max(r.queue_hwm, queued);
    if (queued > 0) {
      queue_was_full = true;
    } else if (queue_was_full) {
      queue_was_full = false;
      ++r.queue_drains;
    }
  });

  if (traced) {
    obs::set_enabled(true);
    obs::set_profiling_enabled(true);
  }
  const double cpu0 = process_cpu_ms();
  run_start = Clock::now();
  fleet.run(horizon);
  const auto run_end = Clock::now();
  r.cpu_ms = process_cpu_ms() - cpu0;
  obs::set_enabled(false);
  obs::set_profiling_enabled(false);
  if (mid_t <= 0 || mid_t >= horizon) {
    throw std::runtime_error("no fleet barrier inside the run's second half");
  }
  r.wall_ms = ms_between(run_start, run_end);
  r.first_wall_ms = ms_between(run_start, mid_wall);
  r.first_sim_s = ms_to_sec(mid_t);
  r.second_wall_ms = ms_between(mid_wall, run_end);
  r.second_sim_s = ms_to_sec(horizon - mid_t);

  r.report = fleet.report();
  std::size_t held = r.report.completed;
  for (const auto& row : r.report.shards) {
    held += row.queued_end + row.running_end;
  }
  r.conserved = r.report.arrivals == held && r.report.arrivals == bound;
  fleet::FleetReport canonical = r.report;
  canonical.stage_costs = {};
  r.canonical = fleet::report_json(canonical);

  if (traced) {
    for (const auto* t : timed) r.core.push_back(t->stats());
    r.exec = fleet.executor_stats();
    obs::MetricsRegistry merged;
    fleet.merge_metrics(merged);
    r.hardware_ticks = merged.counter_value("platform.hardware_ticks");
    r.session_ticks = merged.counter_value("platform.session_ticks");
  }
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// ---- reporting ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

/// Median over repetitions of a per-repetition figure.
template <class F>
double median_of(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(f(r));
  return median(v);
}

/// One round is one plain repetition of each of the run's traces. Host
/// rates pool a round's traces; the run reports the median round.
double median_over_rounds(const std::vector<Rep>& plain, std::size_t traces,
                          double (*pooled)(std::span<const Rep>)) {
  std::vector<double> v;
  for (std::size_t i = 0; i + traces <= plain.size(); i += traces) {
    v.push_back(pooled(std::span(plain).subspan(i, traces)));
  }
  return median(v);
}

double sim_rate(std::span<const Rep> round) {
  double sim_s = 0.0, wall_ms = 0.0;
  for (const auto& r : round) {
    sim_s += r.first_sim_s + r.second_sim_s;
    wall_ms += r.wall_ms;
  }
  return sim_s / (wall_ms / 1e3);
}

/// Host cost per simulated second in the second half over the first.
double wall_growth(std::span<const Rep> round) {
  double fw = 0.0, fs = 0.0, sw = 0.0, ss = 0.0;
  for (const auto& r : round) {
    fw += r.first_wall_ms;
    fs += r.first_sim_s;
    sw += r.second_wall_ms;
    ss += r.second_sim_s;
  }
  return (sw / ss) / (fw / fs);
}

std::vector<Metric> end_to_end(const std::vector<Rep>& plain,
                               std::size_t traces) {
  // Simulated outcomes are deterministic per trace: pool the first round.
  double throughput = 0.0, qos = 0.0, wait = 0.0, completed = 0.0;
  double slo_runs = 0.0, slo_attained = 0.0;
  const auto per_trace = 1.0 / static_cast<double>(traces);
  for (std::size_t i = 0; i < traces; ++i) {
    const auto& rep = plain[i].report;
    throughput += rep.throughput * per_trace;
    qos += rep.qos_violation_s * per_trace;
    wait += rep.mean_wait_s * static_cast<double>(rep.completed);
    completed += static_cast<double>(rep.completed);
    for (const auto& row : rep.slo) {
      slo_runs += static_cast<double>(row.runs);
      slo_attained += static_cast<double>(row.runs) * row.fps_attainment_pct;
    }
  }
  const auto n = static_cast<std::size_t>(completed);
  return {
      {"sim_s_per_wall_s", median_over_rounds(plain, traces, sim_rate),
       "sim_s/s", plain.size() / traces},
      {"setup_s",
       median_of(plain, [](const Rep& r) { return r.setup_ms() / 1e3; }), "s",
       plain.size()},
      {"peak_rss_mb",
       median_of(plain, [](const Rep& r) { return r.peak_rss_mb; }), "MB",
       plain.size()},
      {"eq2_throughput_game_s", throughput, "game_s", traces},
      {"qos_violation_s", qos, "sim_s", traces},
      {"mean_wait_s", completed > 0 ? wait / completed : 0.0, "sim_s", n},
      {"fps_slo_attained_pct",
       slo_runs > 0 ? slo_attained / slo_runs : 100.0, "%",
       static_cast<std::size_t>(slo_runs)},
  };
}

/// Per-layer figures of one traced repetition, in output order.
std::vector<Metric> layer_figures(const Rep& r, int threads) {
  std::vector<double> admit_us, control_us;
  double accepted = 0, rerejects = 0, replacements = 0, replace_ms = 0,
         hooks_ms = 0;
  for (const auto& c : r.core) {
    admit_us.insert(admit_us.end(), c.admit_us.begin(), c.admit_us.end());
    control_us.insert(control_us.end(), c.control_us.begin(),
                      c.control_us.end());
    accepted += static_cast<double>(c.admit_accepted);
    rerejects += static_cast<double>(c.admit_rerejects);
    replacements += c.replacements;
    replace_ms += c.replace_ms;
    hooks_ms += c.hooks_ms;
  }
  double admit_ms = 0, control_ms = 0;
  for (double us : admit_us) admit_ms += us / 1e3;
  for (double us : control_us) control_ms += us / 1e3;
  const double calls = static_cast<double>(admit_us.size());
  std::size_t queued_end = 0;
  for (const auto& row : r.report.shards) queued_end += row.queued_end;

  std::vector<Metric> m = {
      {"core.admit.calls", calls, "count", 1},
      {"core.admit.accepted", accepted, "count", 1},
      {"core.admit.rereject_pct", calls > 0 ? 100.0 * rerejects / calls : 0.0,
       "%", admit_us.size()},
      {"core.admit.busy_ms", admit_ms, "ms", admit_us.size()},
      {"core.admit.us_p50", percentile(admit_us, 50), "us", admit_us.size()},
      {"core.admit.us_p99", percentile(admit_us, 99), "us", admit_us.size()},
      {"core.control.calls", static_cast<double>(control_us.size()), "count",
       1},
      {"core.control.busy_ms", control_ms, "ms", control_us.size()},
      {"core.control.us_p50", percentile(control_us, 50), "us",
       control_us.size()},
      {"core.control.us_p99", percentile(control_us, 99), "us",
       control_us.size()},
      {"core.model_replace.count", replacements, "count", 1},
      {"core.model_replace.busy_ms", replace_ms, "ms", 1},
      {"core.session_hooks.busy_ms", hooks_ms, "ms", 1},
      {"run.cpu_ms", r.cpu_ms, "ms", 1},
      {"platform.residual_ms", r.cpu_ms - admit_ms - control_ms - hooks_ms,
       "ms", 1},
      {"platform.hardware_ticks", static_cast<double>(r.hardware_ticks),
       "count", 1},
      {"platform.session_ticks", static_cast<double>(r.session_ticks), "count",
       1},
      {"fleet.syncs", static_cast<double>(r.exec.syncs), "count", 1},
      {"fleet.steals", static_cast<double>(r.exec.steals), "count", 1},
      {"fleet.idle_ms", threads * r.wall_ms - r.cpu_ms, "ms", 1},
      {"fleet.parallel_efficiency", r.cpu_ms / (threads * r.wall_ms), "ratio",
       1},
      {"fleet.queue_hwm", static_cast<double>(r.queue_hwm), "count", 1},
      {"fleet.queue_drains", static_cast<double>(r.queue_drains), "count", 1},
      {"fleet.unadmitted", static_cast<double>(queued_end), "count", 1},
  };
  // Cross-check only: the program's own inclusive stage table, as a share
  // of the run's CPU time.
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const double ms =
        static_cast<double>(r.report.stage_costs[s].total_ns) / 1e6;
    m.push_back({std::string("profiler.") + obs::stage_name(s) + "_pct",
                 100.0 * ms / r.cpu_ms, "%",
                 static_cast<std::size_t>(r.report.stage_costs[s].calls)});
  }
  return m;
}

std::vector<Metric> per_layer(const std::vector<Rep>& plain,
                              const std::vector<Rep>& traced,
                              std::size_t traces, int threads) {
  // Each figure is the median over traced repetitions.
  std::vector<std::vector<Metric>> per_rep;
  for (const auto& r : traced) per_rep.push_back(layer_figures(r, threads));
  std::vector<Metric> m = per_rep.front();
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::vector<double> v;
    for (const auto& fig : per_rep) v.push_back(fig[i].value);
    m[i].value = median(v);
  }

  // From the plain repetitions, like the end-to-end rate.
  m.push_back({"run.wall_growth",
               median_over_rounds(plain, traces, wall_growth), "ratio",
               plain.size() / traces});
  // Set-up parts over every repetition, plain and traced.
  const std::size_t n = plain.size() + traced.size();
  for (const auto& [name, part] :
       {std::pair{"traffic.generate_ms", &Rep::generate_ms},
        std::pair{"traffic.bind_ms", &Rep::bind_ms},
        std::pair{"core.train_ms", &Rep::train_ms},
        std::pair{"fleet.build_ms", &Rep::build_ms}}) {
    std::vector<double> v;
    for (const auto* reps : {&plain, &traced}) {
      for (const auto& r : *reps) v.push_back(r.*part);
    }
    m.push_back({name, median(v), "ms", n});
  }
  // Plain and traced repetitions alternate on the same trace, so each pair
  // differs only by the tracing.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(100.0 * (1.0 - plain[i].wall_ms / traced[i].wall_ms));
  }
  m.push_back({"obs.tracing_overhead_pct", median(overhead), "%",
               overhead.size()});
  return m;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  std::printf("  %-32s %16s  %-8s %8s\n", "metric", "value", "unit",
              "samples");
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.4f  %-8s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload saturated|light|diurnal "
               "--seed N --seconds T --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        for (const auto& candidate : kWorkloads) {
          if (value == candidate.name) w = &candidate;
        }
        if (w == nullptr) return usage();
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || w == nullptr || seconds < 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    std::printf("fleetbench %s: %d servers, %d shards, %s runner on %d "
                "thread(s), %d sim-minutes, %zu traces from seed %llu\n",
                w->name, w->servers, kShards,
                fleet::runner_kind_name(w->runner), w->threads, w->minutes,
                w->traces, static_cast<unsigned long long>(seed));
    std::vector<std::uint64_t> trace_seeds;
    SplitMix64 expand(seed);
    for (std::size_t i = 0; i < w->traces; ++i) {
      trace_seeds.push_back(expand.next());
    }
    // Whole rounds until T seconds have passed: every trace is simulated
    // equally often, so the medians do not depend on how many fit.
    const auto start = Clock::now();
    std::vector<Rep> plain, traced;
    do {
      for (std::size_t i = 0; i < w->traces; ++i) {
        plain.push_back(run_once(*w, i, trace_seeds[i], false));
        if (trace == 1) {
          traced.push_back(run_once(*w, i, trace_seeds[i], true));
        }
      }
    } while (ms_between(start, Clock::now()) < seconds * 1e3);

    // Correctness gate: conservation, and every repetition's canonical
    // report equal to the first plain one on the same trace. A failing
    // repetition counts all its requests as failed.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto* reps : {&plain, &traced}) {
      for (const auto& r : *reps) {
        attempted += r.report.arrivals;
        const bool same = r.canonical == plain[r.trace_index].canonical;
        if (!r.conserved || !same) {
          failed += r.report.arrivals;
          std::fprintf(stderr, "gate: %s repetition on trace %zu %s\n",
                       r.traced ? "traced" : "plain", r.trace_index,
                       !r.conserved ? "breaks request conservation"
                                    : "reports different bytes");
        }
      }
    }

    const auto e2e = end_to_end(plain, w->traces);
    print_table("end-to-end (plain repetitions)", e2e);
    std::vector<Metric> layers;
    if (trace == 1) {
      layers = per_layer(plain, traced, w->traces, w->threads);
      print_table("per-layer (traced repetitions)", layers);
    }
    std::printf("gate: %zu repetition(s), %llu request(s) attempted, %llu "
                "failed\n",
                plain.size() + traced.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));

    const auto& out = trace == 0 ? e2e : layers;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                  out[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
