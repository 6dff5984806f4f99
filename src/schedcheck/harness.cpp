#include "schedcheck/harness.h"

#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/textio.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/scheduler_factory.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "traffic/generator.h"

namespace cocg::schedcheck {

namespace {

/// Train-once cache: fuzzing runs thousands of fleets in one process, all
/// sharing one immutable compiled-model bank per training seed.
const core::ModelBank& bank_for_seed(std::uint64_t seed) {
  static std::mutex mu;
  static std::map<std::uint64_t, std::unique_ptr<core::ModelBank>> banks;
  std::lock_guard<std::mutex> lk(mu);
  auto it = banks.find(seed);
  if (it == banks.end()) {
    core::OfflineConfig ocfg;
    ocfg.profiling_runs = 8;
    ocfg.corpus_runs = 40;
    ocfg.seed = seed;
    auto bank = std::make_unique<core::ModelBank>();
    for (const auto& [name, tg] :
         core::train_suite(game::paper_suite(), ocfg)) {
      bank->add_trained(tg);
    }
    it = banks.emplace(seed, std::move(bank)).first;
  }
  return *it->second;
}

std::string join_csv(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(csv);
  while (std::getline(is, cur, ',')) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

std::string require_meta(const Schedule& s, const std::string& key) {
  const std::string v = s.meta_value(key);
  if (v.empty()) {
    throw std::runtime_error("schedule meta is missing '" + key +
                             "' — not a schedcheck scenario artifact");
  }
  return v;
}

/// The shared body of record/replay/free runs.
RunOutcome run_scenario(const Scenario& sc, Session* session) {
  static const std::vector<game::GameSpec> suite = game::paper_suite();
  std::vector<const game::GameSpec*> games;
  for (const auto& name : sc.games) {
    const game::GameSpec* found = nullptr;
    for (const auto& g : suite) {
      if (g.name == name) found = &g;
    }
    if (found == nullptr) {
      throw std::runtime_error("unknown game in scenario: '" + name + "'");
    }
    games.push_back(found);
  }
  if (games.empty()) throw std::runtime_error("scenario has no games");

  const core::ModelBank& bank = bank_for_seed(sc.seed);
  fleet::FleetConfig fcfg;
  fcfg.shards = sc.shards;
  fcfg.threads = sc.threads;
  fcfg.runner = sc.runner;
  fcfg.policy = sc.policy;
  fcfg.seed = sc.seed;
  fleet::Fleet sim(fcfg, [&](int) {
    return core::make_named_scheduler("cocg", bank, suite);
  });
  hw::ServerSpec spec;
  spec.num_gpus = sc.gpus;
  for (int i = 0; i < sc.servers; ++i) sim.add_server(spec);
  const DurationMs horizon = static_cast<DurationMs>(sc.minutes) * 60 * 1000;
  sim.add_trace_arrivals(
      traffic::generate_trace(traffic::per_game_poisson(
          games, sc.arrivals_per_hour, horizon, sc.seed)),
      games, /*use_recorded_routing=*/false);

  sim.set_schedule_session(session);
  sim.set_barrier_hook([&sim](TimeMs t) {
    auto v = check_fleet(sim, t);
    if (!v.empty()) throw InvariantViolationError(std::move(v));
  });

  RunOutcome out;
  try {
    sim.run(horizon);
    out.report = fleet::report_json(sim.report());
  } catch (const InvariantViolationError& e) {
    out.aborted = true;
    out.violations = e.violations();
  }
  if (session != nullptr) {
    // finish() enforces full consumption under strict replay; an aborted
    // run legitimately leaves records unconsumed, so only snapshot there.
    out.stats = out.aborted ? session->stats() : session->finish();
    out.recorded = session->recorded();
    scenario_to_meta(sc, out.recorded);
  }
  return out;
}

}  // namespace

void scenario_to_meta(const Scenario& sc, Schedule& schedule) {
  schedule.set_meta("scenario", "1");
  schedule.set_meta("shards", std::to_string(sc.shards));
  schedule.set_meta("threads", std::to_string(sc.threads));
  schedule.set_meta("runner", fleet::runner_kind_name(sc.runner));
  schedule.set_meta("policy", fleet::router_policy_name(sc.policy));
  schedule.set_meta("servers", std::to_string(sc.servers));
  schedule.set_meta("gpus", std::to_string(sc.gpus));
  schedule.set_meta("minutes", std::to_string(sc.minutes));
  schedule.set_meta("games", join_csv(sc.games));
  std::ostringstream rate;
  {
    FullPrecision fp(rate);
    rate << sc.arrivals_per_hour;
  }
  schedule.set_meta("rate", rate.str());
  schedule.set_meta("seed", std::to_string(sc.seed));
}

Scenario scenario_from_meta(const Schedule& schedule) {
  Scenario sc;
  sc.shards = std::stoi(require_meta(schedule, "shards"));
  sc.threads = std::stoi(require_meta(schedule, "threads"));
  if (!fleet::parse_runner_kind(require_meta(schedule, "runner"),
                                sc.runner)) {
    throw std::runtime_error("schedule meta: unknown runner '" +
                             schedule.meta_value("runner") + "'");
  }
  const auto policy =
      fleet::parse_router_policy(require_meta(schedule, "policy"));
  if (!policy) {
    throw std::runtime_error("schedule meta: unknown policy '" +
                             schedule.meta_value("policy") + "'");
  }
  sc.policy = *policy;
  sc.servers = std::stoi(require_meta(schedule, "servers"));
  sc.gpus = std::stoi(require_meta(schedule, "gpus"));
  sc.minutes = std::stoi(require_meta(schedule, "minutes"));
  sc.games = split_csv(require_meta(schedule, "games"));
  sc.arrivals_per_hour = std::stod(require_meta(schedule, "rate"));
  sc.seed = std::stoull(require_meta(schedule, "seed"));
  return sc;
}

RunOutcome record_run(const Scenario& sc) {
  Session session(sc.shards);
  session.start_record();
  return run_scenario(sc, &session);
}

RunOutcome replay_run(const Scenario& sc, const Schedule& schedule,
                      bool strict, bool rerecord) {
  Session session(sc.shards);
  session.start_replay(schedule, strict, rerecord);
  return run_scenario(sc, &session);
}

RunOutcome free_run(const Scenario& sc) { return run_scenario(sc, nullptr); }

}  // namespace cocg::schedcheck
