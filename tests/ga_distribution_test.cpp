// Block-distribution math: ownership, blocks, and patch decomposition.
#include <gtest/gtest.h>

#include <tuple>

#include "base/rng.hpp"
#include "ga/distribution.hpp"

namespace splap::ga {
namespace {

TEST(PatchTest, GeometryBasics) {
  Patch p{2, 5, 3, 3};
  EXPECT_EQ(p.rows(), 4);
  EXPECT_EQ(p.cols(), 1);
  EXPECT_EQ(p.elems(), 4);
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE(Patch{}.empty());
  EXPECT_TRUE(p.contains(2, 3));
  EXPECT_TRUE(p.contains(5, 3));
  EXPECT_FALSE(p.contains(6, 3));
  EXPECT_FALSE(p.contains(3, 4));
}

TEST(PatchTest, IntersectionCases) {
  Patch a{0, 9, 0, 9};
  Patch b{5, 15, 5, 15};
  const Patch c = a.intersect(b);
  EXPECT_EQ(c, (Patch{5, 9, 5, 9}));
  Patch disjoint{20, 30, 0, 9};
  EXPECT_TRUE(a.intersect(disjoint).empty());
}

TEST(DistributionTest, SingleProcOwnsEverything) {
  Distribution d(10, 7, 1);
  EXPECT_EQ(d.nprocs(), 1);
  EXPECT_EQ(d.block(0), (Patch{0, 9, 0, 6}));
  EXPECT_EQ(d.owner(9, 6), 0);
  EXPECT_EQ(d.local_elems(0), 70);
}

TEST(DistributionTest, FourProcsNearSquareGrid) {
  Distribution d(100, 100, 4);
  EXPECT_EQ(d.grid_rows() * d.grid_cols(), 4);
  EXPECT_EQ(d.grid_rows(), 2);
  EXPECT_EQ(d.grid_cols(), 2);
  EXPECT_EQ(d.block(0), (Patch{0, 49, 0, 49}));
  EXPECT_EQ(d.block(3), (Patch{50, 99, 50, 99}));
}

TEST(DistributionTest, BlocksPartitionTheArray) {
  for (int n : {1, 2, 3, 4, 5, 6, 8, 12, 16}) {
    Distribution d(37, 53, n);
    std::int64_t total = 0;
    for (int p = 0; p < n; ++p) total += d.local_elems(p);
    EXPECT_EQ(total, 37 * 53) << "n=" << n;
    // Every element owned by exactly the block that contains it.
    Rng rng(static_cast<std::uint64_t>(n));
    for (int k = 0; k < 200; ++k) {
      const auto i = rng.next_in(0, 36);
      const auto j = rng.next_in(0, 52);
      const int o = d.owner(i, j);
      EXPECT_TRUE(d.block(o).contains(i, j));
      for (int p = 0; p < n; ++p) {
        if (p != o) {
          EXPECT_FALSE(d.block(p).contains(i, j));
        }
      }
    }
  }
}

TEST(DistributionTest, DecomposeCoversPatchExactly) {
  Rng rng(77);
  for (int iter = 0; iter < 100; ++iter) {
    const int n = static_cast<int>(rng.next_in(1, 9));
    Distribution d(64, 48, n);
    Patch p;
    p.lo1 = rng.next_in(0, 63);
    p.hi1 = rng.next_in(p.lo1, 63);
    p.lo2 = rng.next_in(0, 47);
    p.hi2 = rng.next_in(p.lo2, 47);
    const auto pieces = d.decompose(p);
    std::int64_t covered = 0;
    for (const auto& [owner, piece] : pieces) {
      EXPECT_FALSE(piece.empty());
      EXPECT_TRUE(d.block(owner).contains(piece.lo1, piece.lo2));
      EXPECT_TRUE(d.block(owner).contains(piece.hi1, piece.hi2));
      covered += piece.elems();
      // Pieces must not extend outside the requested patch.
      EXPECT_GE(piece.lo1, p.lo1);
      EXPECT_LE(piece.hi1, p.hi1);
      EXPECT_GE(piece.lo2, p.lo2);
      EXPECT_LE(piece.hi2, p.hi2);
    }
    EXPECT_EQ(covered, p.elems());
  }
}

TEST(DistributionTest, TallArrayPrefersRowBlocks) {
  Distribution d(1000, 10, 2);
  EXPECT_EQ(d.grid_rows(), 2);
  EXPECT_EQ(d.grid_cols(), 1);
}

TEST(DistributionTest, OutOfBoundsPatchAborts) {
  Distribution d(10, 10, 2);
  EXPECT_DEATH((void)d.decompose(Patch{0, 10, 0, 9}), "out of array bounds");
  EXPECT_DEATH((void)d.owner(10, 0), "out of array bounds");
}

}  // namespace
}  // namespace splap::ga
