#include "core/profile_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/textio.h"

namespace cocg::core {

namespace {

constexpr const char* kMagic = "cocg-profile-v1";
constexpr const char* kVersionPrefix = "cocg-profile-";

void write_vector(std::ostream& os, const ResourceVector& v) {
  for (std::size_t i = 0; i < kNumDims; ++i) {
    os << (i ? " " : "") << v.at(i);
  }
}

ResourceVector read_vector(LineReader& r, std::istringstream& is,
                           const std::string& ctx) {
  ResourceVector v;
  for (std::size_t i = 0; i < kNumDims; ++i) {
    v.at(i) = r.field<double>(is, ctx);
  }
  return v;
}

/// A demand vector the simulator can run on: every component finite and
/// non-negative (a negative peak would reach the server's allocation
/// precondition mid-run instead of failing here).
ResourceVector read_demand(LineReader& r, std::istringstream& is,
                           const std::string& ctx) {
  const ResourceVector v = read_vector(r, is, ctx);
  for (std::size_t i = 0; i < kNumDims; ++i) {
    if (!std::isfinite(v.at(i)) || v.at(i) < 0.0) {
      r.fail(ctx + " component " + std::to_string(i) +
             " must be finite and non-negative");
    }
  }
  return v;
}

}  // namespace

void write_profile(const GameProfile& profile, std::ostream& os) {
  // max_digits10 so the resource vectors round-trip to the exact bits —
  // bundles depend on a reloaded profile being indistinguishable from the
  // freshly profiled one.
  FullPrecision precision(os);
  os << kMagic << '\n';
  os << "game " << profile.game_name << '\n';
  os << "norm_scale ";
  write_vector(os, profile.norm_scale);
  os << '\n';
  os << "peak_demand ";
  write_vector(os, profile.peak_demand);
  os << '\n';
  os << "loading_stage_type " << profile.loading_stage_type << '\n';
  os << "clusters " << profile.clusters.size() << '\n';
  for (const auto& c : profile.clusters) {
    os << "cluster " << c.id << ' ' << c.frames << ' ' << (c.loading ? 1 : 0)
       << ' ';
    write_vector(os, c.centroid);
    os << '\n';
  }
  os << "stage_types " << profile.stage_types.size() << '\n';
  for (const auto& st : profile.stage_types) {
    os << "stage " << st.id << ' ' << (st.loading ? 1 : 0) << ' '
       << st.mean_duration_ms << ' ' << st.max_duration_ms << ' '
       << st.occurrences << ' ' << st.clusters.size();
    for (int c : st.clusters) os << ' ' << c;
    os << ' ';
    write_vector(os, st.peak_demand);
    os << ' ';
    write_vector(os, st.mean_demand);
    os << '\n';
  }
}

void save_profile(const GameProfile& profile, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_profile: cannot open " + path);
  write_profile(profile, out);
  if (!out) throw std::runtime_error("save_profile: write failed " + path);
}

GameProfile read_profile(LineReader& r) {
  const std::string magic = r.line(kMagic);
  if (magic != kMagic) {
    if (magic.rfind(kVersionPrefix, 0) == 0) {
      r.fail("unsupported profile format version '" + magic +
             "' (expected " + kMagic + ")");
    }
    r.fail("bad magic '" + magic + "' (expected " + std::string(kMagic) +
           ")");
  }
  GameProfile p;
  {
    auto ls = r.expect("game ");
    std::getline(ls, p.game_name);
  }
  {
    auto ls = r.expect("norm_scale ");
    p.norm_scale = read_vector(r, ls, "norm_scale");
  }
  {
    auto ls = r.expect("peak_demand ");
    p.peak_demand = read_demand(r, ls, "peak_demand");
  }
  int loading_line = 0;
  {
    auto ls = r.expect("loading_stage_type ");
    loading_line = r.line_no();
    p.loading_stage_type = r.field<int>(ls, "loading_stage_type");
  }
  std::size_t n_clusters = 0;
  {
    auto ls = r.expect("clusters ");
    n_clusters = r.field<std::size_t>(ls, "clusters");
    // GameProfile::match_cluster maps every frame to a cluster.
    if (n_clusters == 0) r.fail("clusters 0: a profile needs a cluster");
  }
  // GameProfile::cluster(id) and stage_type(id) index by id, so every id
  // must equal its position.
  for (std::size_t i = 0; i < n_clusters; ++i) {
    auto ls = r.expect("cluster ");
    ClusterInfo c;
    c.id = r.field<int>(ls, "cluster id");
    if (c.id != static_cast<int>(i)) {
      r.fail("cluster id " + std::to_string(c.id) + " must equal its index " +
             std::to_string(i));
    }
    c.frames = r.field<std::size_t>(ls, "cluster frames");
    c.loading = r.field<int>(ls, "cluster loading") != 0;
    c.centroid = read_vector(r, ls, "cluster centroid");
    p.clusters.push_back(c);
  }
  std::size_t n_stages = 0;
  {
    auto ls = r.expect("stage_types ");
    n_stages = r.field<std::size_t>(ls, "stage_types");
  }
  for (std::size_t i = 0; i < n_stages; ++i) {
    auto ls = r.expect("stage ");
    StageTypeInfo st;
    st.id = r.field<int>(ls, "stage id");
    if (st.id != static_cast<int>(i)) {
      r.fail("stage id " + std::to_string(st.id) + " must equal its index " +
             std::to_string(i));
    }
    st.loading = r.field<int>(ls, "stage loading") != 0;
    st.mean_duration_ms = r.field<DurationMs>(ls, "stage mean duration");
    st.max_duration_ms = r.field<DurationMs>(ls, "stage max duration");
    if (st.mean_duration_ms < 0 || st.max_duration_ms < 0) {
      r.fail("stage durations must be non-negative");
    }
    if (st.mean_duration_ms > st.max_duration_ms) {
      r.fail("stage mean duration " + std::to_string(st.mean_duration_ms) +
             " exceeds its max " + std::to_string(st.max_duration_ms));
    }
    st.occurrences = r.field<std::size_t>(ls, "stage occurrences");
    const auto n_members = r.field<std::size_t>(ls, "stage member count");
    for (std::size_t m = 0; m < n_members; ++m) {
      const int member = r.field<int>(ls, "stage member");
      if (member < 0 || member >= static_cast<int>(n_clusters)) {
        r.fail("stage member " + std::to_string(member) +
               " names no declared cluster");
      }
      st.clusters.push_back(member);
    }
    st.peak_demand = read_demand(r, ls, "stage peak");
    st.mean_demand = read_demand(r, ls, "stage mean");
    p.stage_types.push_back(st);
  }
  // -1 means the game has no loading stage.
  const int loading = p.loading_stage_type;
  if (loading != -1 &&
      (loading < 0 || loading >= p.num_stage_types() ||
       !p.stage_types[static_cast<std::size_t>(loading)].loading)) {
    r.fail_at(loading_line, "loading_stage_type " + std::to_string(loading) +
                                " names no loading stage");
  }
  return p;
}

GameProfile read_profile(std::istream& is) {
  LineReader r(is, "profile");
  return read_profile(r);
}

GameProfile load_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_profile: cannot open " + path);
  return read_profile(in);
}

}  // namespace cocg::core
