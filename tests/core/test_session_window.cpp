// Schedulers over the live sessions' fixed telemetry window.
//
// Schedulers address samples by absolute number and average at most
// SampleWindow::kCapacity of them, so a window size beyond the capacity is
// rejected at construction. Sessions here run for many minutes, far past
// the window's 32 samples, and each run is pinned by a digest of its
// report and counters computed when sessions still kept their whole
// telemetry history: the window must not move a single decision. (Re-pinned
// for the ziggurat normal sampler from a build whose window held 4096
// samples, more than any session here records.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/baselines.h"
#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "game/library.h"
#include "obs/obs.h"
#include "platform/cloud_platform.h"
#include "telemetry/sample_window.h"

namespace cocg::core {
namespace {

constexpr std::size_t kCap = telemetry::SampleWindow::kCapacity;

std::map<std::string, TrainedGame> models(
    const std::vector<game::GameSpec>& suite) {
  OfflineConfig cfg;
  cfg.profiling_runs = 5;
  cfg.corpus_runs = 8;
  cfg.seed = 7;
  return train_suite(suite, cfg);
}

/// One title is enough to construct a scheduler.
std::map<std::string, TrainedGame> one_model() {
  static const std::vector<game::GameSpec> suite = {game::make_contra()};
  return models(suite);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every game of the paper suite, two at a time, on three servers for 40
/// simulated minutes with the default (noise-on) platform: sessions run
/// for minutes, so every window read after the first half-minute is of a
/// wrapped ring. Returns the completed runs, per-game stats and the
/// scheduler-facing counters as text.
std::string long_session_report(std::unique_ptr<platform::Scheduler> sched,
                                const std::vector<game::GameSpec>& suite) {
  obs::reset();
  obs::set_enabled(true);
  platform::PlatformConfig cfg;
  cfg.seed = 3;
  platform::CloudPlatform cloud(cfg, std::move(sched));
  for (int i = 0; i < 3; ++i) cloud.add_server(hw::ServerSpec{});
  for (const auto& g : suite) cloud.add_source({&g, 2, 8});
  cloud.run(40 * 60 * 1000);

  std::string out;
  for (const auto& r : cloud.completed_runs()) {
    out += std::to_string(r.sid.value) + " " + r.game + " " +
           std::to_string(r.script_idx) + " " + std::to_string(r.start) +
           " " + std::to_string(r.end) + " " + std::to_string(r.wait_ms) +
           " " + std::to_string(r.qos_violation_ms) + " " +
           std::to_string(r.loading_extension_ms) + " " +
           hex(r.mean_fps_ratio) + " " + hex(r.mean_fps) + " " +
           hex(r.mean_latency_ms) + " " + hex(r.max_latency_ms) + " " +
           std::to_string(r.latency_violation_ms) + "\n";
  }
  for (const auto& [name, gs] : cloud.game_stats()) {
    out += name + " " + std::to_string(gs.completed) + " " +
           hex(gs.total_duration_s) + " " + hex(gs.mean_fps_ratio) + " " +
           hex(gs.qos_violation_s) + " " + hex(gs.mean_wait_s) + "\n";
  }
  out += "running " + std::to_string(cloud.running_sessions()) + " queued " +
         std::to_string(cloud.queued_requests()) + "\n";
  // Nonzero counters only: the registry is process-wide, so which names
  // exist depends on the tests that ran before this one.
  for (const auto& name : obs::metrics().counter_names()) {
    const std::uint64_t v = obs::metrics().counter_value(name);
    if (v != 0 &&
        (name.starts_with("scheduler.") || name.starts_with("regulator.") ||
         name.starts_with("distributor.") ||
         name.starts_with("platform.session"))) {
      out += name + "=" + std::to_string(v) + "\n";
    }
  }
  obs::set_enabled(false);
  obs::reset();
  return out;
}

TEST(SessionWindowConfig, CocgDetectionWindowMustFitTheWindow) {
  for (std::size_t bad : {std::size_t{0}, kCap + 1}) {
    CocgConfig cfg;
    cfg.detection_window = bad;
    try {
      CocgScheduler s(one_model(), cfg);
      ADD_FAILURE() << "detection_window " << bad << " accepted";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("CocgConfig::detection_window"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest window bench_ablation_interval sweeps, and the bounds.
  for (std::size_t ok : {std::size_t{1}, std::size_t{20}, kCap}) {
    CocgConfig cfg;
    cfg.detection_window = ok;
    EXPECT_NO_THROW(CocgScheduler(one_model(), cfg));
  }
}

TEST(SessionWindowConfig, ImprovedWindowMustFitTheWindow) {
  for (std::size_t bad : {std::size_t{0}, kCap + 1}) {
    ImprovedConfig cfg;
    cfg.window = bad;
    try {
      ImprovedScheduler s(one_model(), cfg);
      ADD_FAILURE() << "window " << bad << " accepted";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("ImprovedConfig::window"),
                std::string::npos)
          << e.what();
    }
  }
  for (std::size_t ok : {std::size_t{1}, kCap}) {
    ImprovedConfig cfg;
    cfg.window = ok;
    EXPECT_NO_THROW(ImprovedScheduler(one_model(), cfg));
  }
}

// The detection window, the regulator's pinned-at-cap probe and the
// monitor's consumed-sample cursor all index by absolute sample number.
// The report lists the scheduler's memo counters too: the digest moved
// when a hosted outlook came to be read once per view per epoch
// (scheduler.outlook_memo.hits 4721 -> 2151, scheduler.view_cache.* new,
// every other line equal).
TEST(LongSessionDigest, CocgMatchesFullHistoryRun) {
  static const auto suite = game::paper_suite();
  const std::string rep = long_session_report(
      std::make_unique<CocgScheduler>(models(suite)), suite);
  EXPECT_NE(rep.find("scheduler.model_replacements="), std::string::npos);
  EXPECT_NE(rep.find("regulator.holds="), std::string::npos);
  EXPECT_EQ(fnv1a(rep), 0x64b4489a7742efcbULL) << std::hex << fnv1a(rep) << "\n" << rep;
}

TEST(LongSessionDigest, ImprovedMatchesFullHistoryRun) {
  static const auto suite = game::paper_suite();
  const std::string rep = long_session_report(
      std::make_unique<ImprovedScheduler>(models(suite)), suite);
  EXPECT_EQ(fnv1a(rep), 0x2511e216bfe0f71eULL) << std::hex << fnv1a(rep) << "\n" << rep;
}

}  // namespace
}  // namespace cocg::core
