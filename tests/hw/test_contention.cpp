#include "hw/contention.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "hw/server.h"

namespace cocg::hw {
namespace {

const ResourceVector kCap{100, 100, 8192, 8192};

SessionDraw draw(std::uint64_t sid, ResourceVector demand,
                 ResourceVector alloc) {
  return SessionDraw{SessionId{sid}, demand, alloc};
}

TEST(Contention, UnsaturatedFullySupplied) {
  const auto out = ContentionModel::resolve(
      kCap, {draw(1, {30, 40, 1000, 1000}, {50, 50, 2000, 2000}),
             draw(2, {20, 30, 1000, 1000}, {50, 50, 2000, 2000})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].supplied, (ResourceVector{30, 40, 1000, 1000}));
  EXPECT_DOUBLE_EQ(out[0].satisfaction, 1.0);
  EXPECT_DOUBLE_EQ(out[1].satisfaction, 1.0);
}

TEST(Contention, AllocationCapsDemand) {
  const auto out = ContentionModel::resolve(
      kCap, {draw(1, {80, 80, 100, 100}, {40, 40, 100, 100})});
  EXPECT_EQ(out[0].supplied, (ResourceVector{40, 40, 100, 100}));
  EXPECT_DOUBLE_EQ(out[0].satisfaction, 0.5);
}

TEST(Contention, SaturatedPoolSplitsProportionally) {
  // Two sessions each want 80 GPU with generous allocations → pool (100)
  // splits 50/50.
  const auto out = ContentionModel::resolve(
      kCap, {draw(1, {10, 80, 100, 100}, {100, 100, 8192, 8192}),
             draw(2, {10, 80, 100, 100}, {100, 100, 8192, 8192})});
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.gpu(), 50.0);
  EXPECT_NEAR(out[0].satisfaction, 50.0 / 80.0, 1e-12);
}

TEST(Contention, ProportionalNotEqual) {
  const auto out = ContentionModel::resolve(
      kCap, {draw(1, {10, 90, 100, 100}, {100, 100, 8192, 8192}),
             draw(2, {10, 30, 100, 100}, {100, 100, 8192, 8192})});
  // 120 desired into 100: scale 5/6.
  EXPECT_NEAR(out[0].supplied.gpu(), 75.0, 1e-9);
  EXPECT_NEAR(out[1].supplied.gpu(), 25.0, 1e-9);
}

TEST(Contention, PerDimensionIndependence) {
  // GPU saturated, CPU not: only GPU scales.
  const auto out = ContentionModel::resolve(
      kCap, {draw(1, {20, 80, 100, 100}, kCap),
             draw(2, {20, 80, 100, 100}, kCap)});
  EXPECT_DOUBLE_EQ(out[0].supplied.cpu(), 20.0);
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 50.0);
}

TEST(Contention, EmptyDrawsOk) {
  const auto out = ContentionModel::resolve(kCap, {});
  EXPECT_TRUE(out.empty());
}

TEST(Contention, OutputOrderMatchesInput) {
  const auto out = ContentionModel::resolve(
      kCap, {draw(7, {1, 1, 1, 1}, kCap), draw(3, {1, 1, 1, 1}, kCap)});
  EXPECT_EQ(out[0].sid.value, 7u);
  EXPECT_EQ(out[1].sid.value, 3u);
}

TEST(Contention, RejectsNonPositiveCapacity) {
  EXPECT_THROW(
      ContentionModel::resolve(ResourceVector{0, 100, 100, 100}, {}),
      ContractError);
}

// --- resolve_server: CPU/RAM pooled, GPU per device ---

TEST(ResolveServer, GpuIsolatedPerDevice) {
  ServerSpec spec;  // 2 GPUs
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {10, 80, 100, 100}, spec.per_gpu_capacity()), 0});
  draws.push_back({draw(2, {10, 80, 100, 100}, spec.per_gpu_capacity()), 1});
  const auto out = resolve_server(spec, draws);
  // Different devices: both fully supplied on GPU.
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 80.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.gpu(), 80.0);
}

TEST(ResolveServer, GpuContendsWithinDevice) {
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {10, 80, 100, 100}, spec.per_gpu_capacity()), 0});
  draws.push_back({draw(2, {10, 80, 100, 100}, spec.per_gpu_capacity()), 0});
  // Same device, no GPU demand: the zero dimension is not a squeeze.
  draws.push_back({draw(3, {10, 0, 100, 100}, spec.per_gpu_capacity()), 0});
  const auto out = resolve_server(spec, draws);
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.gpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[0].satisfaction, 50.0 / 80.0);
  EXPECT_DOUBLE_EQ(out[2].supplied.gpu(), 0.0);
  EXPECT_EQ(out[2].satisfaction, 1.0);
}

TEST(ResolveServer, CpuPooledAcrossDevices) {
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {80, 10, 100, 100}, spec.per_gpu_capacity()), 0});
  draws.push_back({draw(2, {80, 10, 100, 100}, spec.per_gpu_capacity()), 1});
  const auto out = resolve_server(spec, draws);
  // 160 CPU desired into 100 → 50 each despite different GPUs.
  EXPECT_DOUBLE_EQ(out[0].supplied.cpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.cpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 10.0);
}

TEST(ResolveServer, ValidatesGpuIndex) {
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {1, 1, 1, 1}, spec.per_gpu_capacity()), 5});
  EXPECT_THROW(resolve_server(spec, draws), ContractError);
}

// Property: total supplied never exceeds capacity on any pool.
class ResolveServerProp : public ::testing::TestWithParam<int> {};

TEST_P(ResolveServerProp, NeverExceedsCapacity) {
  const int n = GetParam();
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  for (int i = 0; i < n; ++i) {
    const double cpu = 20.0 + 13.0 * (i % 5);
    const double gpu = 30.0 + 17.0 * (i % 4);
    draws.push_back({draw(static_cast<std::uint64_t>(i),
                          {cpu, gpu, 1500, 1500}, spec.per_gpu_capacity()),
                     i % spec.num_gpus});
  }
  const auto out = resolve_server(spec, draws);
  // The allocation-free overload yields the same result (empty for n = 0).
  ServerResolveScratch scratch;
  const auto& reused = resolve_server(spec, draws, scratch);
  ASSERT_EQ(reused.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(reused[i].supplied, out[i].supplied);
    EXPECT_EQ(reused[i].satisfaction, out[i].satisfaction);
  }
  double cpu_total = 0, ram_total = 0;
  std::vector<double> gpu_total(static_cast<std::size_t>(spec.num_gpus), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    cpu_total += out[i].supplied.cpu();
    ram_total += out[i].supplied.ram();
    gpu_total[static_cast<std::size_t>(draws[i].gpu_index)] +=
        out[i].supplied.gpu();
    EXPECT_GE(out[i].satisfaction, 0.0);
    EXPECT_LE(out[i].satisfaction, 1.0);
  }
  EXPECT_LE(cpu_total, spec.cpu_capacity_pct + 1e-9);
  EXPECT_LE(ram_total, spec.ram_mb + 1e-9);
  for (double g : gpu_total) EXPECT_LE(g, spec.gpu_capacity_pct + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, ResolveServerProp,
                         ::testing::Values(1, 2, 3, 4, 6, 10, 0));

}  // namespace
}  // namespace cocg::hw
