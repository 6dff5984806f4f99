#include "core/frame_profiler.h"

#include <algorithm>
#include <array>
#include <map>
#include <span>

#include "common/check.h"
#include "ml/kmeans.h"

namespace cocg::core {

namespace {

/// A cluster joins a stage's signature only when it covers at least this
/// fraction of the stage's frames — boundary-blended and transient-spike
/// frames otherwise explode the 2^N stage-type space (§IV-A2 notes real
/// games stay under 2N types).
constexpr double kSignatureMinFrac = 0.20;
/// Execution-stage occurrences shorter than this many frames are
/// transition artifacts (a 5 s slice straddling a loading boundary) and
/// are dropped from the catalog and the sequences.
constexpr std::size_t kMinExecFrames = 2;
/// Loading signature: GPU below this absolute % AND below this fraction
/// of the busiest cluster's GPU, with CPU above kLoadingCpuFloorPct and the
/// CPU:GPU ratio above kLoadingCpuGpuRatio (loading burns CPU with a black
/// screen; low-intensity gameplay does not).
constexpr double kLoadingGpuPct = 15.0;
constexpr double kLoadingGpuFrac = 0.35;
constexpr double kLoadingCpuFloorPct = 20.0;
constexpr double kLoadingCpuGpuRatio = 3.0;

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

/// One stage of a run, frames [first, end).
struct Segment {
  std::size_t first = 0;
  std::size_t end = 0;
  bool loading = false;
  std::vector<int> clusters;  ///< the signature, sorted
  int majority = -1;  ///< most-voted cluster; a tie goes to the lower id
};

/// The stage segmentation rule (Observation 2), shared by profiling and
/// re-segmentation: cut a run's per-frame clusters at loading boundaries,
/// keep in each segment's signature only the clusters covering at least
/// kSignatureMinFrac of its frames, and drop execution segments shorter
/// than kMinExecFrames (1-frame blips are boundary artifacts).
std::vector<Segment> segment_stages(const GameProfile& profile,
                                    std::span<const int> frame_clusters) {
  std::vector<Segment> out;
  std::vector<std::size_t> votes(profile.clusters.size());
  std::size_t i = 0;
  while (i < frame_clusters.size()) {
    Segment seg;
    seg.first = i;
    seg.loading = profile.cluster(frame_clusters[i]).loading;
    std::fill(votes.begin(), votes.end(), 0);
    while (i < frame_clusters.size() &&
           profile.cluster(frame_clusters[i]).loading == seg.loading) {
      ++votes[static_cast<std::size_t>(frame_clusters[i])];
      ++i;
    }
    seg.end = i;
    const std::size_t n_frames = seg.end - seg.first;
    if (!seg.loading && n_frames < kMinExecFrames) continue;

    std::size_t best_votes = 0;
    for (std::size_t c = 0; c < votes.size(); ++c) {
      if (votes[c] > best_votes) {
        best_votes = votes[c];
        seg.majority = static_cast<int>(c);
      }
      if (static_cast<double>(votes[c]) >=
          kSignatureMinFrac * static_cast<double>(n_frames)) {
        seg.clusters.push_back(static_cast<int>(c));
      }
    }
    if (seg.clusters.empty()) seg.clusters.push_back(frame_clusters[seg.first]);
    out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace

ProfilerOutput FrameProfiler::profile(
    const std::string& game_name,
    std::span<const std::vector<ResourceVector>> runs, Rng& rng) const {
  COCG_EXPECTS_MSG(!runs.empty(), "profiling needs at least one run");

  ProfilerOutput out;
  out.profile.game_name = game_name;
  out.profile.norm_scale = default_norm_scale();

  // 1. Every run's 5-second frames, as points in normalized space.
  ml::PointSet points;
  for (const auto& means : runs) {
    COCG_EXPECTS(!means.empty());
    for (const auto& m : means) {
      points.add(to_point(m, out.profile.norm_scale));
    }
  }

  // 2. Choose K (elbow over the SSE curve unless forced) and cluster.
  out.sse_by_k = ml::sse_curve(points, kElbowKMax, rng, kKMeansRestarts);
  out.chosen_k = cfg_.forced_k > 0
                     ? cfg_.forced_k
                     : ml::pick_elbow(out.sse_by_k, kElbowMinGain);
  out.chosen_k = std::min<int>(out.chosen_k,
                               static_cast<int>(points.size()));
  ml::KMeansConfig kcfg;
  kcfg.k = out.chosen_k;
  kcfg.restarts = kKMeansRestarts;
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
    info.loading = gpu < kLoadingGpuPct &&
                   (max_gpu <= 0.0 || gpu < kLoadingGpuFrac * max_gpu) &&
                   cpu > kLoadingCpuFloorPct &&
                   cpu > kLoadingCpuGpuRatio * gpu;
    out.profile.clusters.push_back(info);
  }

  // 4. Segment stages per run at loading boundaries (Observation 2).
  std::span<const int> assignment(km.assignment);
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    const auto frames = assignment.first(runs[ri].size());
    assignment = assignment.subspan(runs[ri].size());
    for (auto& seg : segment_stages(out.profile, frames)) {
      StageOccurrence occ;
      occ.run_idx = ri;
      occ.start = static_cast<TimeMs>(seg.first) * kFrameSliceMs;
      occ.end = static_cast<TimeMs>(seg.end) * kFrameSliceMs;
      occ.clusters = std::move(seg.clusters);
      occ.loading = seg.loading;
      out.occurrences.push_back(std::move(occ));
    }
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

  // 7. Per-run stage-type sequences for the predictor.
  out.stage_sequences.assign(runs.size(), {});
  for (const auto& occ : out.occurrences) {
    out.stage_sequences[occ.run_idx].push_back(occ.stage_type);
  }

  COCG_ENSURES(out.profile.num_stage_types() >= 1);
  return out;
}

std::vector<int> infer_stage_sequence(
    const GameProfile& profile, std::span<const ResourceVector> frame_means) {
  COCG_EXPECTS(!frame_means.empty());
  std::vector<int> frame_clusters;
  frame_clusters.reserve(frame_means.size());
  for (const auto& m : frame_means) {
    frame_clusters.push_back(profile.match_cluster(m));
  }

  std::vector<int> seq;
  for (const auto& seg : segment_stages(profile, frame_clusters)) {
    int st = profile.loading_stage_type;
    if (!seg.loading) {
      st = profile.match_stage_signature(seg.clusters);
      // Unseen combination: label by the majority cluster's most specific
      // containing type.
      if (st < 0) st = profile.match_execution_stage_for_cluster(seg.majority);
    }
    if (st >= 0) seq.push_back(st);
  }
  return seq;
}

}  // namespace cocg::core
