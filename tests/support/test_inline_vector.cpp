#include "support/inline_vector.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace pcf {
namespace {

using Vec = InlineVector<double, 4>;

TEST(InlineVector, DefaultIsEmpty) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(Vec::capacity(), 4u);
}

TEST(InlineVector, SizeConstructorFills) {
  Vec v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  for (double x : v) EXPECT_EQ(x, 1.5);
}

TEST(InlineVector, InitializerList) {
  Vec v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

TEST(InlineVector, PushBackAndOverflow) {
  Vec v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_THROW(v.push_back(9.0), ContractViolation);
}

TEST(InlineVector, ResizeGrowsWithFillAndShrinks) {
  Vec v{1.0};
  v.resize(3, 7.0);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 7.0);
  EXPECT_EQ(v[2], 7.0);
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1.0);
}

TEST(InlineVector, ShrinkThenGrowShowsTheFillValue) {
  Vec v{1.0, 2.0, 3.0};
  v.resize(1);
  v.resize(3, 7.0);
  EXPECT_EQ(v, (Vec{1.0, 7.0, 7.0}));
  v.resize(0);
  v.resize(2);
  EXPECT_EQ(v, (Vec{0.0, 0.0}));
}

TEST(InlineVector, ResizeBeyondCapacityThrows) {
  Vec v;
  EXPECT_THROW(v.resize(5), ContractViolation);
}

TEST(InlineVector, EqualityComparesSizeAndContent) {
  Vec a{1.0, 2.0};
  Vec b{1.0, 2.0};
  Vec c{1.0, 2.0, 3.0};
  Vec d{1.0, 9.0};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(InlineVector, EqualityIgnoresTheTail) {
  // Same live prefix, different elements past size(): still equal.
  Vec a{1.0, 2.0, 3.0, 4.0};
  Vec b{1.0, 2.0, 8.0, 9.0};
  a.resize(2);
  b.resize(2);
  EXPECT_EQ(a, b);
}

TEST(InlineVector, CopyFromShorterCarriesExactlyTheSourcePrefix) {
  const Vec shorter{5.0, 6.0};
  Vec assigned{1.0, 2.0, 3.0, 4.0};
  assigned = shorter;
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned, shorter);
  // Growing again shows the fill value, never the longer vector's old tail.
  assigned.resize(4, -1.0);
  EXPECT_EQ(assigned, (Vec{5.0, 6.0, -1.0, -1.0}));

  const Vec copied(shorter);
  EXPECT_EQ(copied.size(), 2u);
  EXPECT_EQ(copied, shorter);

  Vec self{7.0, 8.0};
  const Vec& alias = self;
  self = alias;
  EXPECT_EQ(self, (Vec{7.0, 8.0}));
}

TEST(InlineVector, AssignReplacesContents) {
  const double raw[] = {4.0, 5.0, 6.0};
  Vec v{1.0, 2.0, 3.0, 4.0};
  v.assign(std::span<const double>(raw, 2));
  EXPECT_EQ(v, (Vec{4.0, 5.0}));
  const double too_many[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_THROW(v.assign(std::span<const double>(too_many)), ContractViolation);
}

TEST(InlineVector, IterationAndAccumulate) {
  Vec v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(std::accumulate(v.begin(), v.end(), 0.0), 10.0);
}

TEST(InlineVector, SpanConstructorAndAsSpan) {
  const double raw[] = {5.0, 6.0};
  Vec v{std::span<const double>(raw)};
  auto s = v.as_span();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1], 6.0);
}

TEST(InlineVector, ClearResets) {
  Vec v{1.0, 2.0};
  v.clear();
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace pcf
