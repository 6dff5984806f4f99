// Allocation-counting regression test for the simulation hot path.
//
// Replaces the global operator new/delete with counting wrappers and
// asserts that hardware_tick() performs zero heap allocation at steady
// state: dense SessionTable lookups, scratch-arena reuse, SeqSet event
// bookkeeping and live sessions writing into their inline SampleWindow
// must keep the tick loop off the allocator entirely once warmed up. The
// same holds for the CoCG scheduler re-rejecting a queued request within
// one admission pass.
//
// Sanitizer builds provide their own operator new and need the default
// one for poisoning/interception, so the hook (and the strict zero
// assertion) compiles out there; the test then only checks the scenario
// still runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/cocg_scheduler.h"
#include "core/offline.h"
#include "game/library.h"
#include "obs/obs.h"
#include "platform/cloud_platform.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COCG_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define COCG_ALLOC_HOOK 0
#else
#define COCG_ALLOC_HOOK 1
#endif
#else
#define COCG_ALLOC_HOOK 1
#endif

namespace {

std::uint64_t g_allocs = 0;   // bumped by every operator new while armed
bool g_counting = false;      // tests are single-threaded; plain bool is fine

std::uint64_t allocations_observed() { return g_allocs; }
void arm_alloc_counter() {
  g_allocs = 0;
  g_counting = true;
}
void disarm_alloc_counter() { g_counting = false; }

}  // namespace

#if COCG_ALLOC_HOOK

namespace {
void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocs;
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // COCG_ALLOC_HOOK

namespace cocg::platform {
namespace {

/// A game whose single execution stage dwells for hours: after loading,
/// sessions sit in steady state with no stage transitions (transitions
/// append to the session's stage history, which is allowed to allocate).
game::GameSpec steady_spec() {
  game::GameSpec spec;
  spec.id = GameId{700};
  spec.name = "Steady";
  spec.category = game::GameCategory::kWeb;

  game::FrameClusterSpec load;
  load.id = 0;
  load.name = "load";
  load.centroid = {28, 6, 700, 420};
  load.jitter = {2, 1, 10, 5};
  spec.clusters.push_back(load);

  game::FrameClusterSpec play;
  play.id = 1;
  play.name = "play";
  play.centroid = {10, 20, 820, 450};
  play.jitter = {1, 2, 10, 5};
  spec.clusters.push_back(play);

  game::StageTypeSpec loading;
  loading.id = 0;
  loading.name = "loading";
  loading.kind = game::StageKind::kLoading;
  loading.clusters = {0};
  loading.min_dwell_ms = loading.max_dwell_ms = 5000;
  spec.stage_types.push_back(loading);

  game::StageTypeSpec exec;
  exec.id = 1;
  exec.name = "endless";
  exec.kind = game::StageKind::kExecution;
  exec.clusters = {1};
  exec.min_dwell_ms = exec.max_dwell_ms = 8L * 3600 * 1000;
  spec.stage_types.push_back(exec);

  spec.loading_stage_type = 0;
  game::ScriptSpec script;
  script.name = "steady";
  script.segments.push_back(game::ScriptSegment{1, 1, 1, 0.0});
  spec.scripts.push_back(script);
  return spec;
}

class PinScheduler final : public Scheduler {
 public:
  std::string name() const override { return "pin"; }
  std::optional<Placement> admit(PlatformView& view,
                                 const GameRequest& req) override {
    (void)req;
    const ResourceVector alloc{12.0, 24.0, 900.0, 500.0};
    for (ServerId server : view.server_ids()) {
      const auto& srv = view.server(server);
      for (int g = 0; g < srv.spec().num_gpus; ++g) {
        if (alloc.fits_within(srv.free_on_gpu(g))) {
          return Placement{server, g, alloc};
        }
      }
    }
    return std::nullopt;
  }
};

TEST(HotPathAlloc, SteadyStateTicksDoNotAllocate) {
  static const auto spec = steady_spec();
  PlatformConfig cfg;
  cfg.seed = 2024;
  cfg.session.spike_prob = 0.0;
  // Keep control ticks out of the measurement window: the window then
  // contains hardware ticks only.
  cfg.control_period_ms = 3600LL * 1000;
  CloudPlatform cloud(cfg, std::make_unique<PinScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_server(hw::ServerSpec{});
  for (int i = 0; i < 12; ++i) cloud.submit(&spec, 0, 100 + i);

  cloud.begin(2LL * 3600 * 1000);
  // Warm up past loading and through first-touch growth of every arena.
  cloud.advance_until(30 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 12u);

  arm_alloc_counter();
  cloud.advance_until(230 * 1000);  // 200 steady-state hardware ticks
  disarm_alloc_counter();
  const std::uint64_t n = allocations_observed();
  cloud.finish();

  ASSERT_EQ(cloud.running_sessions(), 12u);
#if COCG_ALLOC_HOOK
  EXPECT_EQ(n, 0u) << "hardware_tick allocated on the steady-state path";
#else
  (void)n;
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
}

/// The same guarantee with the full observability stack on: metrics
/// recording AND the stage profiler must stay off the allocator in the
/// tick loop (StageScope is two clock reads, never a heap touch).
TEST(HotPathAlloc, SteadyStateTicksDoNotAllocateWithProfilingEnabled) {
  static const auto spec = steady_spec();
  obs::reset();
  obs::set_enabled(true);
  obs::set_profiling_enabled(true);
  PlatformConfig cfg;
  cfg.seed = 2025;
  cfg.session.spike_prob = 0.0;
  cfg.control_period_ms = 3600LL * 1000;
  CloudPlatform cloud(cfg, std::make_unique<PinScheduler>());
  cloud.add_server(hw::ServerSpec{});
  cloud.add_server(hw::ServerSpec{});
  for (int i = 0; i < 12; ++i) cloud.submit(&spec, 0, 100 + i);

  cloud.begin(2LL * 3600 * 1000);
  cloud.advance_until(30 * 1000);
  ASSERT_EQ(cloud.running_sessions(), 12u);

  arm_alloc_counter();
  cloud.advance_until(230 * 1000);
  disarm_alloc_counter();
  const std::uint64_t n = allocations_observed();
  cloud.finish();

  // The profiler must actually have been measuring during the window.
  const auto prof = cloud.stage_profile();
  EXPECT_GT(prof[static_cast<std::size_t>(obs::Stage::kEventQueue)].calls,
            0u);
  EXPECT_GT(
      prof[static_cast<std::size_t>(obs::Stage::kResourceKernels)].calls,
      0u);
  obs::set_profiling_enabled(false);
  obs::set_enabled(false);
  obs::reset();

  ASSERT_EQ(cloud.running_sessions(), 12u);
#if COCG_ALLOC_HOOK
  EXPECT_EQ(n, 0u) << "profiling-enabled hardware_tick allocated on the"
                      " steady-state path";
#else
  (void)n;
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
}

/// Under overload most admit() calls re-reject a queued request. Within
/// one admission pass that path reads only memoized outlooks, a scratch
/// vector and static verdict strings: no heap allocation per call.
TEST(HotPathAlloc, ReRejectingAdmitDoesNotAllocate) {
  // train_suite's specs point into the suite, which must outlive them.
  static const std::vector<game::GameSpec> suite = {game::make_genshin()};
  const game::GameSpec& genshin = suite.front();
  core::OfflineConfig ocfg;
  ocfg.profiling_runs = 5;
  ocfg.corpus_runs = 8;
  ocfg.seed = 7;
  auto sched =
      std::make_unique<core::CocgScheduler>(core::train_suite(suite, ocfg));
  core::CocgScheduler* cocg = sched.get();
  PlatformConfig cfg;
  cfg.seed = 2026;
  CloudPlatform cloud(cfg, std::move(sched));
  cloud.add_server(hw::ServerSpec{});
  for (int i = 0; i < 12; ++i) cloud.submit(&genshin, 0, 100 + i);

  cloud.begin(2LL * 3600 * 1000);
  cloud.advance_until(60 * 1000);  // the server fills, the rest queue
  ASSERT_GT(cloud.running_sessions(), 0u);
  ASSERT_GT(cloud.queued_requests(), 0u);

  GameRequest req;
  req.id = RequestId{999};
  req.spec = &genshin;
  req.player_id = 100;
  req.arrival = 0;
  // The first call fills the hosted and candidate memos.
  ASSERT_FALSE(cocg->admit(cloud, req).has_value());

  constexpr int kCalls = 200;
  int admitted = 0;
  arm_alloc_counter();
  for (int i = 0; i < kCalls; ++i) {
    if (cocg->admit(cloud, req).has_value()) ++admitted;
  }
  disarm_alloc_counter();
  const std::uint64_t n = allocations_observed();
  cloud.finish();

  EXPECT_EQ(admitted, 0);
#if COCG_ALLOC_HOOK
  EXPECT_EQ(n, 0u) << "re-rejecting admit() allocated";
#else
  (void)n;
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
}

}  // namespace
}  // namespace cocg::platform
