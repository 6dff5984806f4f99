#include "core/profile_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/frame_profiler.h"
#include "game/library.h"
#include "game/tracegen.h"

namespace cocg::core {
namespace {

GameProfile sample_profile() {
  const game::GameSpec spec = game::make_genshin();
  std::vector<std::vector<ResourceVector>> runs;
  Rng rng(21);
  for (int r = 0; r < 8; ++r) {
    runs.push_back(game::profile_run_frame_means(
                       spec, static_cast<std::size_t>(r % 3),
                       static_cast<std::uint64_t>(r % 4 + 1), rng.next_u64())
                       .means);
  }
  ProfilerConfig cfg;
  cfg.forced_k = spec.num_clusters();
  FrameProfiler profiler(cfg);
  return profiler.profile(spec.name, runs, rng).profile;
}

void expect_profiles_equal(const GameProfile& a, const GameProfile& b) {
  EXPECT_EQ(a.game_name, b.game_name);
  EXPECT_EQ(a.norm_scale, b.norm_scale);
  EXPECT_EQ(a.loading_stage_type, b.loading_stage_type);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].id, b.clusters[i].id);
    EXPECT_EQ(a.clusters[i].frames, b.clusters[i].frames);
    EXPECT_EQ(a.clusters[i].loading, b.clusters[i].loading);
    for (std::size_t d = 0; d < kNumDims; ++d) {
      EXPECT_NEAR(a.clusters[i].centroid.at(d), b.clusters[i].centroid.at(d),
                  1e-4 * (1.0 + std::abs(a.clusters[i].centroid.at(d))));
    }
  }
  ASSERT_EQ(a.stage_types.size(), b.stage_types.size());
  for (std::size_t i = 0; i < a.stage_types.size(); ++i) {
    EXPECT_EQ(a.stage_types[i].id, b.stage_types[i].id);
    EXPECT_EQ(a.stage_types[i].loading, b.stage_types[i].loading);
    EXPECT_EQ(a.stage_types[i].clusters, b.stage_types[i].clusters);
    EXPECT_EQ(a.stage_types[i].mean_duration_ms,
              b.stage_types[i].mean_duration_ms);
    EXPECT_EQ(a.stage_types[i].occurrences, b.stage_types[i].occurrences);
  }
}

TEST(ProfileIo, StreamRoundTrip) {
  const GameProfile p = sample_profile();
  std::stringstream ss;
  write_profile(p, ss);
  const GameProfile back = read_profile(ss);
  expect_profiles_equal(p, back);
}

TEST(ProfileIo, FileRoundTrip) {
  const GameProfile p = sample_profile();
  const std::string path = "test_profile_io_tmp.cocg";
  save_profile(p, path);
  const GameProfile back = load_profile(path);
  expect_profiles_equal(p, back);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadedProfileIsFunctional) {
  const GameProfile p = sample_profile();
  std::stringstream ss;
  write_profile(p, ss);
  const GameProfile back = read_profile(ss);
  // The matching machinery works on the loaded copy.
  for (const auto& c : back.clusters) {
    EXPECT_EQ(back.match_cluster(c.centroid), c.id);
  }
  for (const auto& st : back.stage_types) {
    EXPECT_EQ(back.match_stage_signature(st.clusters), st.id);
  }
}

TEST(ProfileIo, BadMagicRejected) {
  std::stringstream ss;
  ss << "not-a-profile\n";
  EXPECT_THROW(read_profile(ss), std::runtime_error);
}

TEST(ProfileIo, TruncatedRejected) {
  const GameProfile p = sample_profile();
  std::stringstream ss;
  write_profile(p, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_profile(cut), std::runtime_error);
}

TEST(ProfileIo, MissingFileThrows) {
  EXPECT_THROW(load_profile("no_such_profile_xyz.cocg"), std::runtime_error);
}

TEST(ProfileIo, VersionSkewNamesTheVersion) {
  const GameProfile p = sample_profile();
  std::stringstream ss;
  write_profile(p, ss);
  std::string text = ss.str();
  text.replace(text.find("cocg-profile-v1"), 15, "cocg-profile-v3");
  std::stringstream skewed(text);
  try {
    read_profile(skewed);
    FAIL() << "version skew accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(ProfileIo, CorruptFieldDiagnosticNamesTheLine) {
  const GameProfile p = sample_profile();
  std::stringstream ss;
  write_profile(p, ss);
  std::string text = ss.str();
  const auto pos = text.find("clusters ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, text.find('\n', pos) - pos, "clusters banana");
  std::stringstream corrupt(text);
  try {
    read_profile(corrupt);
    FAIL() << "corrupt field accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

TEST(ProfileIo, RoundTripIsByteExact) {
  // max_digits10 serialization: a load/save cycle reproduces the file
  // byte for byte, so profiles behave as golden artifacts under diff.
  const GameProfile p = sample_profile();
  std::stringstream ss;
  write_profile(p, ss);
  const std::string text = ss.str();
  const GameProfile back = read_profile(ss);
  std::stringstream ss2;
  write_profile(back, ss2);
  EXPECT_EQ(ss2.str(), text);
}

/// read_profile's diagnostic for `p`, or "" (with a test failure) when the
/// profile loads.
std::string rejection(const GameProfile& p) {
  std::stringstream ss;
  write_profile(p, ss);
  try {
    read_profile(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "invalid profile accepted";
  return "";
}

/// "line N" for the first serialized line of `p` that starts with `prefix`.
std::string line_tag(const GameProfile& p, const std::string& prefix) {
  std::stringstream ss;
  write_profile(p, ss);
  std::string l;
  for (int n = 1; std::getline(ss, l); ++n) {
    if (l.rfind(prefix, 0) == 0) return "line " + std::to_string(n) + ":";
  }
  ADD_FAILURE() << "no line starts with " << prefix;
  return "";
}

TEST(ProfileIo, NegativeDemandRejectedNamingTheLine) {
  const GameProfile good = sample_profile();
  {
    GameProfile p = good;
    for (std::size_t d = 0; d < kNumDims; ++d) {
      p.peak_demand.at(d) = -p.peak_demand.at(d);
    }
    EXPECT_NE(rejection(p).find(line_tag(p, "peak_demand ")),
              std::string::npos);
  }
  ASSERT_FALSE(good.stage_types.empty());
  {
    GameProfile p = good;
    p.stage_types[0].peak_demand.at(1) = -1.0;
    EXPECT_NE(rejection(p).find(line_tag(p, "stage ")), std::string::npos);
  }
  {
    GameProfile p = good;
    p.stage_types[0].mean_demand.at(0) = -0.5;
    EXPECT_NE(rejection(p).find("stage mean"), std::string::npos);
  }
}

TEST(ProfileIo, BadStageDurationOrMemberRejected) {
  const GameProfile good = sample_profile();
  ASSERT_FALSE(good.stage_types.empty());
  {
    GameProfile p = good;
    p.stage_types[0].mean_duration_ms = p.stage_types[0].max_duration_ms + 1;
    EXPECT_NE(rejection(p).find(line_tag(p, "stage ")), std::string::npos);
  }
  {
    GameProfile p = good;
    p.stage_types[0].mean_duration_ms = -1000;
    EXPECT_NE(rejection(p).find("non-negative"), std::string::npos);
  }
  {
    GameProfile p = good;
    p.stage_types[0].clusters.push_back(9999);
    EXPECT_NE(rejection(p).find("names no declared cluster"),
              std::string::npos);
  }
}

// GameProfile::cluster(id) indexes by id: a renumbered cluster (with its
// stage member renumbered to match) used to load and then stop a fleet run
// on a precondition.
TEST(ProfileIo, ClusterIdOffItsIndexRejectedNamingTheLine) {
  const GameProfile good = sample_profile();
  ASSERT_GE(good.clusters.size(), 2u);
  GameProfile p = good;
  p.clusters[1].id = 7;
  for (auto& st : p.stage_types) {
    for (int& m : st.clusters) {
      if (m == 1) m = 7;
    }
  }
  std::stringstream ss;
  write_profile(p, ss);
  std::string l;
  int cluster_line = 0;
  for (int n = 1; std::getline(ss, l); ++n) {
    if (l.rfind("cluster 7 ", 0) == 0) cluster_line = n;
  }
  ASSERT_GT(cluster_line, 0);
  const std::string why = rejection(p);
  EXPECT_NE(why.find("line " + std::to_string(cluster_line) + ":"),
            std::string::npos)
      << why;
  EXPECT_NE(why.find("cluster id 7"), std::string::npos) << why;
}

// A profile without clusters used to load and then stop a fleet run on
// GameProfile::match_cluster's precondition at its first frame.
TEST(ProfileIo, ZeroClustersRejectedAtLoad) {
  GameProfile p = sample_profile();
  p.clusters.clear();
  for (auto& st : p.stage_types) st.clusters.clear();
  const std::string why = rejection(p);
  EXPECT_NE(why.find(line_tag(p, "clusters ")), std::string::npos) << why;
  EXPECT_NE(why.find("clusters 0"), std::string::npos) << why;
}

// GameProfile::stage_type(id) indexes by id, so loading_stage_type must
// name a loading stage in range (or be -1: no loading stage).
TEST(ProfileIo, LoadingStageTypeOutOfRangeRejectedNamingTheLine) {
  const GameProfile good = sample_profile();
  {
    GameProfile p = good;
    p.loading_stage_type = p.num_stage_types();
    const std::string why = rejection(p);
    EXPECT_NE(why.find(line_tag(p, "loading_stage_type ")), std::string::npos)
        << why;
  }
  {
    const auto execution =
        std::find_if(good.stage_types.begin(), good.stage_types.end(),
                     [](const StageTypeInfo& st) { return !st.loading; });
    ASSERT_NE(execution, good.stage_types.end());
    GameProfile p = good;
    p.loading_stage_type = execution->id;
    EXPECT_NE(rejection(p).find("names no loading stage"), std::string::npos);
  }
  GameProfile none = good;
  none.loading_stage_type = -1;
  std::stringstream ss;
  write_profile(none, ss);
  EXPECT_EQ(read_profile(ss).loading_stage_type, -1);
}

TEST(ProfileIo, GameNameWithSpacesSurvives) {
  GameProfile p = sample_profile();
  p.game_name = "Devil May Cry";
  std::stringstream ss;
  write_profile(p, ss);
  EXPECT_EQ(read_profile(ss).game_name, "Devil May Cry");
}

}  // namespace
}  // namespace cocg::core
