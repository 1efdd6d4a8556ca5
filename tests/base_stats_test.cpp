#include "base/stats.hpp"

#include <gtest/gtest.h>

#include <string>

namespace splap {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of that classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 10.0);
}

TEST(CounterSetTest, BumpAndGet) {
  CounterSet c;
  EXPECT_EQ(c.get("x"), 0);
  c.bump("x");
  c.bump("x", 4);
  c.bump("y", 2);
  EXPECT_EQ(c.get("x"), 5);
  EXPECT_EQ(c.get("y"), 2);
  EXPECT_EQ(c.all().size(), 2u);
}

TEST(CounterSetTest, ResetClearsAll) {
  CounterSet c;
  c.bump("a");
  c.reset();
  EXPECT_EQ(c.get("a"), 0);
  EXPECT_TRUE(c.all().empty());
}

TEST(CounterSetTest, HandlesSurviveGrowthAndReset) {
  CounterSet c;
  const CounterSet::Handle hot = c.handle("hot");
  hot.bump(3);
  // Hot paths cache handles at construction; later counters must not move
  // the entry a cached handle points at.
  for (int i = 0; i < 1000; ++i) c.bump("filler" + std::to_string(i));
  hot.bump(4);
  EXPECT_EQ(c.get("hot"), 7);
  EXPECT_EQ(c.get("filler999"), 1);

  c.reset();
  EXPECT_TRUE(c.all().empty());
  hot.bump(2);
  EXPECT_EQ(c.get("hot"), 2);
  const auto all = c.all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "hot");
  EXPECT_EQ(all[0].second, 2);
}

}  // namespace
}  // namespace splap
