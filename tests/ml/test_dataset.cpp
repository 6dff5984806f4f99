#include "ml/dataset.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace cocg::ml {
namespace {

Dataset small() {
  Dataset d({"f0", "f1"});
  d.add({1.0, 2.0}, 0);
  d.add({3.0, 4.0}, 1);
  d.add({5.0, 6.0}, 2);
  d.add({7.0, 8.0}, 1);
  return d;
}

TEST(Dataset, AddAndAccess) {
  const Dataset d = small();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.x(1)[0], 3.0);
  EXPECT_EQ(d.y(2), 2);
  EXPECT_EQ(d.feature_names()[1], "f1");
}

TEST(Dataset, NumClasses) {
  EXPECT_EQ(small().num_classes(), 3);
  Dataset empty;
  EXPECT_EQ(empty.num_classes(), 0);
}

TEST(Dataset, RejectsBadRows) {
  Dataset d;
  d.add({1.0, 2.0}, 0);
  EXPECT_THROW(d.add({1.0}, 0), ContractError);        // width mismatch
  EXPECT_THROW(d.add({1.0, 2.0}, -1), ContractError);  // negative label
}

TEST(Dataset, SplitPartitionsAllRows) {
  Dataset d;
  for (int i = 0; i < 100; ++i) d.add({double(i)}, i % 3);
  Rng rng(1);
  auto [train, test] = d.split(0.75, rng);
  EXPECT_EQ(train.size(), 75u);
  EXPECT_EQ(test.size(), 25u);
  // Every original row appears exactly once across the two parts.
  std::vector<int> seen(100, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ++seen[static_cast<std::size_t>(train.x(i)[0])];
  }
  for (std::size_t i = 0; i < test.size(); ++i) {
    ++seen[static_cast<std::size_t>(test.x(i)[0])];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Dataset, SplitIsShuffled) {
  Dataset d;
  for (int i = 0; i < 100; ++i) d.add({double(i)}, 0);
  Rng rng(2);
  auto [train, test] = d.split(0.5, rng);
  // The first half of `train` should not be simply 0..49.
  bool any_high = false;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (train.x(i)[0] >= 50.0) any_high = true;
  }
  EXPECT_TRUE(any_high);
}

TEST(Dataset, SplitExtremes) {
  Dataset d = small();
  Rng rng(3);
  auto [all, none] = d.split(1.0, rng);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_THROW(d.split(1.5, rng), ContractError);
}

TEST(Dataset, Append) {
  Dataset a = small();
  const Dataset b = small();
  a.append(b);
  EXPECT_EQ(a.size(), 8u);
  Dataset wrong({"only"});
  wrong.add({1.0}, 0);
  EXPECT_THROW(a.append(wrong), ContractError);
}

}  // namespace
}  // namespace cocg::ml
