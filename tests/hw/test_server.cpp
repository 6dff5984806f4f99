#include "hw/server.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace cocg::hw {
namespace {

ServerSpec testbed() { return ServerSpec{}; }  // i7-7700 + 2x2080 defaults

TEST(ServerSpec, PaperTestbedDefaults) {
  const ServerSpec s = testbed();
  EXPECT_EQ(s.num_gpus, 2);
  EXPECT_EQ(s.ram_mb, 8192.0);
  const ResourceVector cap = s.per_gpu_capacity();
  EXPECT_EQ(cap.cpu(), 100.0);
  EXPECT_EQ(cap.gpu(), 100.0);
}

TEST(Server, PlaceAndLookup) {
  Server s(ServerId{0}, testbed());
  EXPECT_TRUE(s.place(SessionId{1}, 0, {10, 20, 1000, 1000}));
  EXPECT_TRUE(s.hosts(SessionId{1}));
  EXPECT_EQ(s.session_count(), 1u);
  EXPECT_EQ(s.placement(SessionId{1}).gpu_index, 0);
  EXPECT_FALSE(s.hosts(SessionId{2}));
  EXPECT_THROW(s.placement(SessionId{2}), ContractError);
}

TEST(Server, PlaceRejectsOverCapacity) {
  Server s(ServerId{0}, testbed());
  EXPECT_FALSE(s.place(SessionId{1}, 0, {101, 0, 0, 0}));
  EXPECT_FALSE(s.place(SessionId{1}, 0, {0, 0, 9000, 0}));
  EXPECT_EQ(s.session_count(), 0u);
}

TEST(Server, PlaceRejectsDuplicate) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {10, 10, 100, 100}));
  EXPECT_THROW(s.place(SessionId{1}, 1, {10, 10, 100, 100}), ContractError);
}

TEST(Server, PlaceValidatesGpuIndex) {
  Server s(ServerId{0}, testbed());
  EXPECT_THROW(s.place(SessionId{1}, 2, {1, 1, 1, 1}), ContractError);
  EXPECT_THROW(s.place(SessionId{1}, -1, {1, 1, 1, 1}), ContractError);
}

TEST(Server, GpuDimsIndependentPerDevice) {
  Server s(ServerId{0}, testbed());
  // 90% GPU on device 0 leaves device 1 fully free.
  ASSERT_TRUE(s.place(SessionId{1}, 0, {10, 90, 1000, 1000}));
  EXPECT_FALSE(s.place(SessionId{2}, 0, {10, 20, 100, 100}));
  EXPECT_TRUE(s.place(SessionId{3}, 1, {10, 90, 1000, 1000}));
}

TEST(Server, CpuSharedAcrossDevices) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {70, 10, 100, 100}));
  // Device 1 has GPU headroom but the CPU pool is nearly drained.
  EXPECT_FALSE(s.place(SessionId{2}, 1, {40, 10, 100, 100}));
  EXPECT_TRUE(s.place(SessionId{3}, 1, {30, 10, 100, 100}));
}

TEST(Server, AllocatedOnGpuAggregates) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {10, 30, 500, 600}));
  ASSERT_TRUE(s.place(SessionId{2}, 1, {20, 40, 700, 800}));
  const ResourceVector v0 = s.allocated_on_gpu(0);
  EXPECT_EQ(v0.cpu(), 30.0);   // CPU server-wide
  EXPECT_EQ(v0.gpu(), 30.0);   // only device-0 sessions
  EXPECT_EQ(v0.ram(), 1400.0); // RAM server-wide
  const ResourceVector v1 = s.allocated_on_gpu(1);
  EXPECT_EQ(v1.gpu(), 40.0);
  EXPECT_EQ(v1.gpu_mem(), 700.0);
}

TEST(Server, FreeOnGpuClamped) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {60, 50, 1000, 1000}));
  const ResourceVector free = s.free_on_gpu(0);
  EXPECT_EQ(free.cpu(), 40.0);
  EXPECT_EQ(free.gpu(), 50.0);
  EXPECT_TRUE(free.non_negative());
}

TEST(Server, UtilizationIsMaxDim) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {20, 80, 100, 100}));
  EXPECT_NEAR(s.utilization_on_gpu(0), 0.8, 1e-12);
  EXPECT_NEAR(s.utilization_on_gpu(1), 0.2, 1e-12);  // CPU leaks across
}

TEST(Server, ReallocateGrowWithinCapacity) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {10, 10, 100, 100}));
  EXPECT_TRUE(s.reallocate(SessionId{1}, {50, 60, 2000, 2000}));
  EXPECT_EQ(s.placement(SessionId{1}).allocation.gpu(), 60.0);
}

TEST(Server, ReallocateRejectsOvercommit) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {10, 90, 100, 100}));
  ASSERT_TRUE(s.place(SessionId{2}, 0, {10, 5, 100, 100}));
  EXPECT_FALSE(s.reallocate(SessionId{2}, {10, 20, 100, 100}));
  EXPECT_TRUE(s.reallocate(SessionId{2}, {10, 20, 100, 100},
                           /*allow_oversubscribe=*/true));
}

TEST(Server, ReallocateUnknownSession) {
  Server s(ServerId{0}, testbed());
  EXPECT_FALSE(s.reallocate(SessionId{9}, {1, 1, 1, 1}));
}

TEST(Server, RemoveFreesCapacity) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{1}, 0, {10, 90, 100, 100}));
  EXPECT_TRUE(s.remove(SessionId{1}));
  EXPECT_FALSE(s.remove(SessionId{1}));
  EXPECT_TRUE(s.place(SessionId{2}, 0, {10, 90, 100, 100}));
}

TEST(Server, SessionIdsSorted) {
  Server s(ServerId{0}, testbed());
  ASSERT_TRUE(s.place(SessionId{5}, 0, {1, 1, 1, 1}));
  ASSERT_TRUE(s.place(SessionId{2}, 1, {1, 1, 1, 1}));
  ASSERT_TRUE(s.place(SessionId{9}, 0, {1, 1, 1, 1}));
  const auto ids = s.session_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0].value, 2u);
  EXPECT_EQ(ids[1].value, 5u);
  EXPECT_EQ(ids[2].value, 9u);
  const auto on0 = s.sessions_on_gpu(0);
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_EQ(on0[0].value, 5u);
}

TEST(Server, RejectsNegativeAllocation) {
  Server s(ServerId{0}, testbed());
  EXPECT_THROW(s.place(SessionId{1}, 0, {-1, 0, 0, 0}), ContractError);
}

TEST(Server, SpecValidation) {
  ServerSpec bad = testbed();
  bad.num_gpus = 0;
  EXPECT_THROW(Server(ServerId{0}, bad), ContractError);
}

// Property: filling a GPU view with k equal sessions succeeds exactly while
// the sum fits.
class ServerFillProp : public ::testing::TestWithParam<int> {};

TEST_P(ServerFillProp, AdmitsExactlyWhileFits) {
  const int k = GetParam();
  Server s(ServerId{0}, testbed());
  const double share = 100.0 / k;
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(s.place(SessionId{static_cast<uint64_t>(i)}, 0,
                        {share / 2, share, 10, 10}))
        << "session " << i << " of " << k;
  }
  // One more GPU-heavy session cannot fit on device 0.
  EXPECT_FALSE(s.place(SessionId{999}, 0, {0.5, share, 10, 10}));
}

INSTANTIATE_TEST_SUITE_P(Counts, ServerFillProp,
                         ::testing::Values(1, 2, 4, 5, 10));

}  // namespace
}  // namespace cocg::hw
