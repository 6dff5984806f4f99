// Oracle for the CoCG scheduler's admission-pass memos.
//
// The scheduler keeps a hosted session's outlook while its monitor version
// and predictor generation are unchanged, a candidate key's outlook until
// its game's next model replacement, and a rejected candidate's verdict
// until the next session start, session end or control(). A stale memo is
// deterministic, so comparing two runs of one binary (Determinism.*)
// cannot catch it. This test instead pins a digest of an overloaded
// fleet's report and admission counters that was computed with the memos
// bypassed. Every invalidation event (monitor judgements, model
// replacement, session start and end, control ticks, admission) happens in
// the run, and an outlook kept past a judgement or a model replacement, or
// a rejection replayed past a placement change, moves a decision here, and
// so the digest. RejectReplayMatchesScan checks the replay itself: the
// same verdict and distributor counts as the scan it stands in for.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cocg_scheduler.h"
#include "core/model_bank.h"
#include "core/offline.h"
#include "core/scheduler_factory.h"
#include "fleet/fleet.h"
#include "game/library.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "platform/cloud_platform.h"
#include "traffic/generator.h"

namespace cocg::fleet {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct OverloadedRun {
  std::string report;    ///< canonical report JSON, stage_costs cleared
  std::string counters;  ///< scheduler.admit.* and distributor.* lines
  std::uint64_t model_replacements = 0;
  std::uint64_t readmitted = 0;  ///< admissions after a rejecting pass
  std::size_t completed = 0;
  std::uint64_t outlook_hits = 0, outlook_misses = 0;
  std::uint64_t candidate_hits = 0, candidate_misses = 0;
  std::uint64_t reject_hits = 0, reject_misses = 0;
};

/// 8 servers in 2 shards under 3000 arrivals/h of three titles for 15
/// simulated minutes, default (noise-on) platform config: the queue grows
/// from the first minutes and most admit() calls re-reject.
OverloadedRun run_overloaded_fleet() {
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  const std::vector<game::GameSpec> suite = {
      game::make_contra(), game::make_csgo(), game::make_genshin()};
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;
  core::ModelBank bank;
  for (const auto& [name, tg] : core::train_suite(suite, ocfg)) {
    bank.add_trained(tg);
  }

  FleetConfig cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.policy = RouterPolicy::kLeastLoaded;
  cfg.seed = 1;
  Fleet f(cfg, [&](int) {
    return core::make_named_scheduler("cocg", bank, suite);
  });
  for (int i = 0; i < 8; ++i) f.add_server(hw::ServerSpec{});
  const std::vector<const game::GameSpec*> games = {&suite[0], &suite[1],
                                                    &suite[2]};
  f.add_trace_arrivals(traffic::generate_trace(traffic::per_game_poisson(
                           games, 1000.0, 15 * 60 * 1000, cfg.seed)),
                       games, /*use_recorded_routing=*/false);
  f.run(15 * 60 * 1000);

  OverloadedRun out;
  FleetReport rep = f.report();
  out.completed = rep.completed;
  rep.stage_costs = {};
  out.report = report_json(rep);

  obs::MetricsRegistry merged;
  f.merge_metrics(merged);
  for (const auto& name : merged.counter_names()) {
    if (name.starts_with("scheduler.admit.") ||
        name.starts_with("distributor.")) {
      out.counters += name + "=" +
                      std::to_string(merged.counter_value(name)) + "\n";
    }
  }
  auto counter = [&](const std::string& name) {
    return merged.has_counter(name) ? merged.counter_value(name) : 0;
  };
  out.model_replacements = counter("scheduler.model_replacements");
  out.outlook_hits = counter("scheduler.outlook_memo.hits");
  out.outlook_misses = counter("scheduler.outlook_memo.misses");
  out.candidate_hits = counter("scheduler.candidate_memo.hits");
  out.candidate_misses = counter("scheduler.candidate_memo.misses");
  out.reject_hits = counter("scheduler.reject_memo.hits");
  out.reject_misses = counter("scheduler.reject_memo.misses");

  // A request is considered at the first control tick after it arrives,
  // so an admission that waited longer than one control period was
  // rejected by at least one earlier pass.
  const DurationMs period = cfg.platform.control_period_ms;
  std::istringstream events(f.merged_events_jsonl());
  for (std::string line; std::getline(events, line);) {
    obs::JsonValue v;
    if (!obs::json_parse(line, v) || v.get_string("kind") != "admission") {
      continue;
    }
    if (v.get_bool("admitted") &&
        v.get_number("waited_ms") > static_cast<double>(period)) {
      ++out.readmitted;
    }
  }
  obs::set_enabled(saved);
  return out;
}

const OverloadedRun& overloaded_run() {
  static const OverloadedRun run = run_overloaded_fleet();
  return run;
}

TEST(AdmissionMemo, OverloadedFleetMatchesParentDigest) {
  const OverloadedRun& run = overloaded_run();
  // The run must exercise every memo invalidation event.
  EXPECT_GT(run.model_replacements, 0u);
  EXPECT_GT(run.readmitted, 0u);
  EXPECT_GT(run.completed, 0u);
  // Digest computed from a scheduler with every admission memo bypassed
  // (each outlook recomputed on every admit() call, no rejection
  // replayed). It moved when model replacements began adopting seeded
  // rotation entries instead of refitting from the shard's Rng, when the
  // normal sampler became a ziggurat, and when the fleet's Poisson load
  // became a generated trace.
  EXPECT_EQ(fnv1a(run.report + run.counters), 0xfe31bbac6ee228a3ULL)
      << std::hex << fnv1a(run.report + run.counters) << "\n"
      << run.counters;
}

// Under overload nearly every admit() call re-rejects a queued request
// against hosted sessions whose outlooks were already computed in the same
// pass, and queued keys stay in the candidate memo across passes.
TEST(AdmissionMemo, HitsOutnumberMissesUnderOverload) {
  const OverloadedRun& run = overloaded_run();
  EXPECT_GT(run.outlook_misses, 0u);
  EXPECT_GT(run.outlook_hits, run.outlook_misses);
  EXPECT_GT(run.candidate_misses, 0u);
  EXPECT_GT(run.candidate_hits, run.candidate_misses);
}

// Within one admission pass many queued requests share a candidate
// outlook, and the shard's placements do not change between them.
TEST(AdmissionMemo, RejectMemoHitsUnderOverload) {
  const OverloadedRun& run = overloaded_run();
  EXPECT_GT(run.reject_misses, 0u);
  EXPECT_GT(run.reject_hits, run.reject_misses);
}

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter_value(name);
}

/// A one-title CoCG platform a minute into a run: its two servers are
/// full and requests are queued. Observability is on for its lifetime.
struct FullPlatform {
  std::vector<game::GameSpec> suite = {game::make_genshin()};
  core::CocgScheduler* cocg = nullptr;
  std::unique_ptr<platform::CloudPlatform> cloud;
  platform::GameRequest req;  ///< an extra request, admitted by hand

  FullPlatform() {
    obs::reset();
    obs::set_enabled(true);
    core::OfflineConfig ocfg;
    ocfg.profiling_runs = 5;
    ocfg.corpus_runs = 8;
    ocfg.seed = 7;
    auto sched =
        std::make_unique<core::CocgScheduler>(core::train_suite(suite, ocfg));
    cocg = sched.get();
    platform::PlatformConfig pcfg;
    pcfg.seed = 2026;
    cloud = std::make_unique<platform::CloudPlatform>(pcfg, std::move(sched));
    for (int i = 0; i < 2; ++i) cloud->add_server(hw::ServerSpec{});
    for (int i = 0; i < 24; ++i) cloud->submit(&suite.front(), 0, 100 + i);
    cloud->begin(2LL * 3600 * 1000);
    cloud->advance_until(kStart);
    req.id = RequestId{999};
    req.spec = &suite.front();
    req.player_id = 100;
  }
  ~FullPlatform() {
    cloud->finish();
    obs::set_enabled(false);
    obs::reset();
  }

  static constexpr TimeMs kStart = 60 * 1000;
};

// A replayed rejection logs the scan's verdict and adds the scan's
// per-reason view counts; a session start or end, and control(), start a
// new epoch, so the next equal candidate is scanned again.
TEST(AdmissionMemo, RejectReplayMatchesScan) {
  FullPlatform fp;
  ASSERT_GT(fp.cloud->queued_requests(), 0u);
  const std::vector<std::string> reasons = {
      "distributor.reject.candidate_exceeds_capacity",
      "distributor.reject.current_exceeds_limit",
      "distributor.reject.expected_exceeds_limit"};
  // One admit() call: whether the replay memo served it, and the
  // distributor reject counts it added.
  struct Call {
    bool admitted = false;
    bool hit = false;
    std::vector<std::uint64_t> rejects;
  };
  auto call = [&] {
    std::vector<std::uint64_t> before;
    for (const auto& name : reasons) before.push_back(counter(name));
    const std::uint64_t hits = counter("scheduler.reject_memo.hits");
    const std::uint64_t misses = counter("scheduler.reject_memo.misses");
    Call c;
    c.admitted = fp.cocg->admit(*fp.cloud, fp.req).has_value();
    for (std::size_t i = 0; i < reasons.size(); ++i) {
      c.rejects.push_back(counter(reasons[i]) - before[i]);
    }
    c.hit = counter("scheduler.reject_memo.hits") == hits + 1;
    EXPECT_EQ(counter("scheduler.reject_memo.hits") +
                  counter("scheduler.reject_memo.misses"),
              hits + misses + 1);
    return c;
  };

  const std::size_t events_before = obs::events().size();
  const Call scan = call();
  ASSERT_FALSE(scan.admitted);
  EXPECT_FALSE(scan.hit);
  EXPECT_GT(scan.rejects[0] + scan.rejects[1] + scan.rejects[2], 0u);
  // An equal candidate from another request: replayed, not scanned.
  fp.req.id = RequestId{1000};
  const Call replay = call();
  EXPECT_FALSE(replay.admitted);
  EXPECT_TRUE(replay.hit);
  EXPECT_EQ(replay.rejects, scan.rejects);
  // Both calls logged the same verdict.
  ASSERT_EQ(obs::events().size(), events_before + 2);
  const auto& logged = obs::events().events();
  const auto& first =
      std::get<obs::AdmissionEvent>(logged[events_before].payload);
  const auto& second =
      std::get<obs::AdmissionEvent>(logged[events_before + 1].payload);
  EXPECT_EQ(first.reason, second.reason);
  EXPECT_EQ(second.request, 1000u);

  // The scheduler forgets one hosted session and learns it again, as the
  // platform's session hooks would report an end and a start.
  const SessionId sid = fp.cloud->session_ids().front();
  fp.cocg->on_session_end(*fp.cloud, sid);
  EXPECT_FALSE(call().hit) << "after on_session_end";
  EXPECT_TRUE(call().hit);
  fp.cocg->on_session_start(*fp.cloud, sid);
  EXPECT_FALSE(call().hit) << "after on_session_start";
  EXPECT_TRUE(call().hit);
  // So does the next control tick.
  fp.cloud->advance_until(FullPlatform::kStart + 5000);
  EXPECT_FALSE(call().hit) << "after control()";
}

// A hosted outlook is reused while its monitor and model are unchanged,
// and recomputed once the game's predictor is refitted.
TEST(AdmissionMemo, HostedOutlooksFollowPredictorGeneration) {
  FullPlatform fp;
  // One admission scan after a new epoch in which one session was
  // forgotten and learned again: the (hits, misses) of its outlook memo.
  // The scan reads the outlooks of sessions on views with headroom.
  const SessionId sid = fp.cloud->session_ids().front();
  auto rescan = [&] {
    fp.cocg->on_session_end(*fp.cloud, sid);
    fp.cocg->on_session_start(*fp.cloud, sid);
    const std::uint64_t hits = counter("scheduler.outlook_memo.hits");
    const std::uint64_t misses = counter("scheduler.outlook_memo.misses");
    EXPECT_FALSE(fp.cocg->admit(*fp.cloud, fp.req).has_value());
    return std::pair{counter("scheduler.outlook_memo.hits") - hits,
                     counter("scheduler.outlook_memo.misses") - misses};
  };
  (void)rescan();
  const auto [hits, misses] = rescan();
  EXPECT_GT(hits, 0u);
  EXPECT_LE(misses, 1u);  // at most the re-learned session's
  // A refit changes every prediction the hosted outlooks were built on.
  fp.cocg->model("Genshin Impact").predictor->replace_model();
  EXPECT_EQ(rescan(), std::pair(std::uint64_t{0}, hits + misses));
}

// A model replacement in control() drops the replaced game's candidate
// outlooks and keeps every other game's: a candidate outlook reads only
// its own game's predictor and profile.
TEST(AdmissionMemo, ReplacementKeepsOtherGamesCandidates) {
  obs::reset();
  obs::set_enabled(true);
  // Genshin Impact fills the servers and is replaced on its first
  // misprediction; DOTA2 is trained but never hosted, so its model stays.
  const std::vector<game::GameSpec> suite = {game::make_genshin(),
                                             game::make_dota2()};
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;
  core::CocgConfig ccfg;
  ccfg.replace_model_after = 1;
  auto sched = std::make_unique<core::CocgScheduler>(
      core::train_suite(suite, ocfg), ccfg);
  core::CocgScheduler* cocg = sched.get();
  platform::PlatformConfig pcfg;
  pcfg.seed = 2026;
  platform::CloudPlatform cloud(pcfg, std::move(sched));
  for (int i = 0; i < 2; ++i) cloud.add_server(hw::ServerSpec{});
  for (int i = 0; i < 24; ++i) cloud.submit(&suite[0], 0, 100 + i);
  cloud.begin(2LL * 3600 * 1000);
  TimeMs now = 60 * 1000;
  cloud.advance_until(now);

  // Two requests by hand, from players nobody queued: one per game.
  platform::GameRequest genshin, dota;
  genshin.id = RequestId{998};
  genshin.spec = &suite[0];
  genshin.player_id = 998;
  dota.id = RequestId{999};
  dota.spec = &suite[1];
  dota.player_id = 999;
  // Whether one admit() call was served from the candidate memo.
  auto hit = [&](const platform::GameRequest& req) {
    const std::uint64_t hits = counter("scheduler.candidate_memo.hits");
    EXPECT_FALSE(cocg->admit(cloud, req).has_value()) << req.spec->name;
    return counter("scheduler.candidate_memo.hits") == hits + 1;
  };
  EXPECT_FALSE(hit(genshin));
  EXPECT_FALSE(hit(dota));
  EXPECT_TRUE(hit(genshin));
  EXPECT_TRUE(hit(dota));

  while (cocg->model_replacements() == 0 && now < 3600 * 1000) {
    now += 5000;
    cloud.advance_until(now);
  }
  ASSERT_GT(cocg->model_replacements(), 0);
  EXPECT_TRUE(hit(dota));
  EXPECT_FALSE(hit(genshin));

  cloud.finish();
  obs::set_enabled(false);
  obs::reset();
}

}  // namespace
}  // namespace cocg::fleet
