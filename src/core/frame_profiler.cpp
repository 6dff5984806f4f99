#include "core/frame_profiler.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>

#include "common/check.h"
#include "ml/kmeans.h"

namespace cocg::core {

namespace {

std::array<double, kNumDims> to_point(const ResourceVector& v,
                                     const ResourceVector& scale) {
  std::array<double, kNumDims> p{};
  for (std::size_t i = 0; i < kNumDims; ++i) p[i] = v.at(i) / scale.at(i);
  return p;
}

ResourceVector from_point(std::span<const double> p,
                          const ResourceVector& scale) {
  ResourceVector v;
  for (std::size_t i = 0; i < kNumDims; ++i) v.at(i) = p[i] * scale.at(i);
  return v;
}

}  // namespace

ProfilerOutput FrameProfiler::profile(
    const std::string& game_name,
    const std::vector<telemetry::Trace>& traces, Rng& rng) const {
  COCG_EXPECTS_MSG(!traces.empty(), "profiling needs at least one trace");

  ProfilerOutput out;
  out.profile.game_name = game_name;
  out.profile.norm_scale = default_norm_scale();

  // 1. Slice all traces into 5-second frames.
  std::vector<std::vector<telemetry::FrameSlice>> sliced;
  ml::PointSet points;
  for (const auto& trace : traces) {
    COCG_EXPECTS(!trace.empty());
    sliced.push_back(trace.to_frame_slices(cfg_.frame_slice_ms));
    for (const auto& fs : sliced.back()) {
      points.add(to_point(fs.mean_usage, out.profile.norm_scale));
    }
  }
  COCG_CHECK(!points.empty());

  // 2. Choose K (elbow over the SSE curve unless forced) and cluster.
  out.sse_by_k = ml::sse_curve(points, cfg_.k_max, rng, cfg_.kmeans_restarts);
  out.chosen_k = cfg_.forced_k > 0
                     ? cfg_.forced_k
                     : ml::pick_elbow(out.sse_by_k, cfg_.elbow_min_gain);
  out.chosen_k = std::min<int>(out.chosen_k,
                               static_cast<int>(points.size()));
  ml::KMeansConfig kcfg;
  kcfg.k = out.chosen_k;
  kcfg.restarts = cfg_.kmeans_restarts;
  const auto km = ml::KMeans::fit(points, kcfg, rng);

  // 3. Build cluster infos; identify the loading signature
  //    (high CPU, near-idle GPU — Observation 3).
  double max_gpu = 0.0;
  for (std::size_t c = 0; c < km.centroids.size(); ++c) {
    const ResourceVector centroid =
        from_point(km.centroids[c], out.profile.norm_scale);
    max_gpu = std::max(max_gpu, centroid[Dim::kGpuPct]);
  }
  for (int c = 0; c < out.chosen_k; ++c) {
    ClusterInfo info;
    info.id = c;
    info.centroid = from_point(km.centroids[static_cast<std::size_t>(c)],
                               out.profile.norm_scale);
    info.frames = static_cast<std::size_t>(
        std::count(km.assignment.begin(), km.assignment.end(), c));
    const double gpu = info.centroid[Dim::kGpuPct];
    const double cpu = info.centroid[Dim::kCpuPct];
    info.loading = gpu < cfg_.loading_gpu_pct &&
                   (max_gpu <= 0.0 || gpu < cfg_.loading_gpu_frac * max_gpu) &&
                   cpu > cfg_.loading_cpu_floor_pct &&
                   cpu > cfg_.loading_cpu_gpu_ratio * gpu;
    out.profile.clusters.push_back(info);
  }

  // 4. Segment stages per trace at loading boundaries (Observation 2).
  //    A stage's signature keeps only clusters covering a meaningful share
  //    of its frames; 1-frame execution blips are boundary artifacts.
  std::size_t point_idx = 0;
  for (std::size_t ti = 0; ti < sliced.size(); ++ti) {
    const auto& frames = sliced[ti];
    std::size_t i = 0;
    while (i < frames.size()) {
      const int first_cluster = km.assignment[point_idx + i];
      const bool loading =
          out.profile.clusters[static_cast<std::size_t>(first_cluster)]
              .loading;
      std::map<int, std::size_t> votes;
      const std::size_t start = i;
      while (i < frames.size()) {
        const int c = km.assignment[point_idx + i];
        const bool c_loading =
            out.profile.clusters[static_cast<std::size_t>(c)].loading;
        if (c_loading != loading) break;
        ++votes[c];
        ++i;
      }
      const std::size_t n_frames = i - start;
      if (!loading && n_frames < cfg_.min_exec_frames) continue;

      std::set<int> clusters;
      for (const auto& [c, v] : votes) {
        if (static_cast<double>(v) >=
            cfg_.signature_min_frac * static_cast<double>(n_frames)) {
          clusters.insert(c);
        }
      }
      if (clusters.empty()) clusters.insert(first_cluster);

      StageOccurrence occ;
      occ.trace_idx = ti;
      occ.start = frames[start].start;
      occ.end = frames[i - 1].end;
      occ.clusters.assign(clusters.begin(), clusters.end());
      occ.loading = loading;
      out.occurrences.push_back(occ);
    }
    point_idx += frames.size();
  }

  // 5. Catalog stage types by cluster-combination signature. Loading
  //    signatures collapse to one canonical loading type.
  std::map<std::vector<int>, int> type_of_sig;
  auto type_id_for = [&](const StageOccurrence& occ) -> int {
    std::vector<int> key = occ.clusters;
    if (occ.loading) key = {-1};  // canonical loading signature
    auto it = type_of_sig.find(key);
    if (it != type_of_sig.end()) return it->second;
    const int id = static_cast<int>(out.profile.stage_types.size());
    StageTypeInfo st;
    st.id = id;
    st.loading = occ.loading;
    st.clusters = occ.clusters;
    out.profile.stage_types.push_back(st);
    type_of_sig.emplace(std::move(key), id);
    if (occ.loading) out.profile.loading_stage_type = id;
    return id;
  };

  for (auto& occ : out.occurrences) {
    occ.stage_type = type_id_for(occ);
    auto& st =
        out.profile.stage_types[static_cast<std::size_t>(occ.stage_type)];
    const DurationMs dur = occ.end - occ.start;
    st.mean_duration_ms += dur;  // running sum; divided below
    st.max_duration_ms = std::max(st.max_duration_ms, dur);
    ++st.occurrences;
  }

  // 6. Demand statistics per stage type.
  for (auto& st : out.profile.stage_types) {
    if (st.occurrences > 0) {
      st.mean_duration_ms /= static_cast<DurationMs>(st.occurrences);
    }
    ResourceVector peak, mean;
    int n = 0;
    for (int c : st.clusters) {
      const auto& ci = out.profile.clusters[static_cast<std::size_t>(c)];
      peak = ResourceVector::max(peak, ci.centroid);
      mean += ci.centroid;
      ++n;
    }
    if (n > 0) mean *= 1.0 / n;
    st.peak_demand = peak;
    st.mean_demand = mean;
    if (!st.loading) {
      out.profile.peak_demand =
          ResourceVector::max(out.profile.peak_demand, st.peak_demand);
    }
  }

  // 7. Per-trace stage-type sequences for the predictor.
  out.stage_sequences.assign(sliced.size(), {});
  for (const auto& occ : out.occurrences) {
    out.stage_sequences[occ.trace_idx].push_back(occ.stage_type);
  }

  COCG_ENSURES(out.profile.num_stage_types() >= 1);
  return out;
}

std::vector<int> infer_stage_sequence(
    const GameProfile& profile, std::span<const ResourceVector> frame_means) {
  COCG_EXPECTS(!frame_means.empty());
  // Mirror FrameProfiler's segmentation hygiene.
  const ProfilerConfig defaults;

  std::vector<int> seq;
  std::size_t i = 0;
  while (i < frame_means.size()) {
    const int first = profile.match_cluster(frame_means[i]);
    const bool loading = profile.cluster(first).loading;
    std::map<int, std::size_t> votes;
    const std::size_t start = i;
    while (i < frame_means.size()) {
      const int c = profile.match_cluster(frame_means[i]);
      if (profile.cluster(c).loading != loading) break;
      ++votes[c];
      ++i;
    }
    const std::size_t n_frames = i - start;
    if (loading) {
      if (profile.loading_stage_type >= 0) {
        seq.push_back(profile.loading_stage_type);
      }
      continue;
    }
    if (n_frames < defaults.min_exec_frames) continue;

    std::set<int> clusters;
    for (const auto& [c, v] : votes) {
      if (static_cast<double>(v) >=
          defaults.signature_min_frac * static_cast<double>(n_frames)) {
        clusters.insert(c);
      }
    }
    if (clusters.empty()) clusters.insert(first);
    std::vector<int> sig(clusters.begin(), clusters.end());
    int st = profile.match_stage_signature(sig);
    if (st < 0) {
      // Unseen combination: label by the majority cluster's most specific
      // containing type.
      int best_cluster = sig[0];
      std::size_t best_votes = 0;
      for (const auto& [c, v] : votes) {
        if (v > best_votes) {
          best_votes = v;
          best_cluster = c;
        }
      }
      st = profile.match_execution_stage_for_cluster(best_cluster);
    }
    if (st >= 0) seq.push_back(st);
  }
  return seq;
}

}  // namespace cocg::core
