// Seeded regression corpus: every .sched artifact under
// tests/schedcheck/corpus replays in-process and must reproduce the
// outcome its meta declares. Conventions (see corpus/README.md):
//   meta expect clean            — strict replay must finish without
//                                  violations or divergences
//   meta expect <invariant>      — replay must abort on that invariant
//   meta fault double_host_window — arm the planted fault for this replay
// The corpus dir is baked in at compile time (COCG_SCHEDCHECK_CORPUS_DIR)
// and overridable via the environment variable of the same name, so CI
// can point the suite at freshly minimized fuzz artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "schedcheck/fault.h"
#include "schedcheck/harness.h"
#include "schedcheck/schedule.h"

namespace cocg::schedcheck {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("COCG_SCHEDCHECK_CORPUS_DIR")) {
    return env;
  }
  return COCG_SCHEDCHECK_CORPUS_DIR;
}

// Disarms the planted fault when an artifact's replay ends, thrown or not,
// so one failing artifact cannot leave it armed for the next.
struct FaultGuard {
  ~FaultGuard() { set_fault(Fault::kNone); }
};

void check_artifact(const std::filesystem::path& path) {
  const Schedule schedule = load_schedule(path.string());
  const std::string expect = schedule.meta_value("expect");
  ASSERT_FALSE(expect.empty()) << "corpus artifact lacks 'meta expect'";

  FaultGuard guard;
  const std::string fault_name = schedule.meta_value("fault");
  if (fault_name == "double_host_window") {
    set_fault(Fault::kDoubleHostWindow);
  } else {
    ASSERT_TRUE(fault_name.empty()) << "unknown fault " << fault_name;
  }

  // Clean artifacts are full recordings: they must replay strictly,
  // every decision forced and none diverging.
  const bool clean = expect == "clean";
  const Scenario sc = scenario_from_meta(schedule);
  const RunOutcome out = replay_run(sc, schedule, /*strict=*/clean);

  if (clean) {
    EXPECT_FALSE(out.aborted) << describe(out.violations);
    EXPECT_EQ(out.stats.forced, out.stats.decisions);
    EXPECT_EQ(out.stats.divergences, 0u);
  } else {
    ASSERT_TRUE(out.aborted) << "expected invariant " << expect;
    ASSERT_FALSE(out.violations.empty());
    EXPECT_EQ(out.violations.front().invariant, expect)
        << describe(out.violations);
  }
}

TEST(SchedCorpus, EveryArtifactReproducesItsDeclaredOutcome) {
  namespace fs = std::filesystem;
  const std::string dir = corpus_dir();
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".sched") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no .sched artifacts in " << dir;

  // A strict replay that diverges throws; report it against its artifact
  // and go on to the next one.
  for (const auto& path : files) {
    const std::string name = path.filename().string();
    SCOPED_TRACE(name);
    try {
      check_artifact(path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace cocg::schedcheck
