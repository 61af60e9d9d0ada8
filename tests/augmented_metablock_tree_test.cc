// Tests for the augmented (semi-dynamic) metablock tree (Section 3.2,
// Theorem 3.7): oracle equivalence under interleaved inserts and queries,
// space O(n/B), amortized insert I/O, and query I/O after heavy insertion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

class AugmentedTreeTest : public ::testing::Test {
 protected:
  AugmentedTreeTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(AugmentedTreeTest, EmptyTree) {
  AugmentedMetablockTree tree(&pager_);
  EXPECT_EQ(tree.size(), 0u);
  std::vector<Point> out;
  ASSERT_TRUE(tree.Query({3}, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(AugmentedTreeTest, RejectsBelowDiagonal) {
  AugmentedMetablockTree tree(&pager_);
  EXPECT_FALSE(tree.Insert({5, 2, 0}).ok());
}

TEST_F(AugmentedTreeTest, InsertFewAndQuery) {
  AugmentedMetablockTree tree(&pager_);
  ASSERT_TRUE(tree.Insert({1, 9, 0}).ok());
  ASSERT_TRUE(tree.Insert({4, 6, 1}).ok());
  ASSERT_TRUE(tree.Insert({7, 8, 2}).ok());
  EXPECT_EQ(tree.size(), 3u);
  std::vector<Point> out;
  ASSERT_TRUE(tree.Query({5}, &out).ok());
  SortPoints(&out);
  // Qualifying: (1,9) x<=5,y>=5 yes; (4,6) yes; (7,8) x=7>5 no.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_EQ(out[1].id, 1u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(AugmentedTreeTest, BulkBuildMatchesOracle) {
  auto points = RandomPointsAboveDiagonal(15 * kB * kB, 3000, 1);
  PointOracle oracle(points);
  auto tree = AugmentedMetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord a = 0; a <= 3000; a += 47) {
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(AugmentedTreeTest, PureInsertionMatchesOracle) {
  AugmentedMetablockTree tree(&pager_);
  PointOracle oracle;
  auto points = RandomPointsAboveDiagonal(6 * kB * kB, 2000, 2);
  for (const Point& p : points) {
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  EXPECT_EQ(tree.size(), points.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (Coord a = -10; a <= 2010; a += 37) {
    std::vector<Point> got;
    ASSERT_TRUE(tree.Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(AugmentedTreeTest, BuildThenInsertMatchesOracle) {
  auto base = RandomPointsAboveDiagonal(10 * kB * kB, 2000, 3);
  PointOracle oracle(base);
  auto tree = AugmentedMetablockTree::Build(&pager_, base);
  ASSERT_TRUE(tree.ok());
  auto extra = RandomPointsAboveDiagonal(10 * kB * kB, 2000, 4);
  std::mt19937 rng(5);
  size_t qcount = 0;
  for (size_t i = 0; i < extra.size(); ++i) {
    Point p = extra[i];
    p.id += 1000000;  // distinct ids
    ASSERT_TRUE(tree->Insert(p).ok());
    oracle.Insert(p);
    if (i % 64 == 0) {  // interleaved queries
      Coord a = static_cast<Coord>(rng() % 2000);
      std::vector<Point> got;
      ASSERT_TRUE(tree->Query({a}, &got).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.Diagonal({a})) << "a=" << a << " i=" << i;
      qcount++;
    }
  }
  EXPECT_GT(qcount, 0u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(AugmentedTreeTest, AdversarialAscendingInserts) {
  // Ascending x stresses rightmost-leaf splits and branching growth.
  AugmentedMetablockTree tree(&pager_);
  PointOracle oracle;
  const Coord n = 8 * kB * kB;
  for (Coord i = 0; i < n; ++i) {
    Point p{i, i + (i % 17), static_cast<uint64_t>(i)};
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (Coord a = 0; a <= n; a += 61) {
    std::vector<Point> got;
    ASSERT_TRUE(tree.Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(AugmentedTreeTest, AdversarialDescendingInserts) {
  AugmentedMetablockTree tree(&pager_);
  PointOracle oracle;
  const Coord n = 8 * kB * kB;
  for (Coord i = n; i > 0; --i) {
    Point p{i, i + (i % 13), static_cast<uint64_t>(i)};
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (Coord a = 0; a <= n; a += 61) {
    std::vector<Point> got;
    ASSERT_TRUE(tree.Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(AugmentedTreeTest, HighYInsertsStayAtRoot) {
  // Points with ever-increasing y accumulate at the root; level II pushes
  // the old low points down. Exercises the TD / desc_ymax machinery.
  AugmentedMetablockTree tree(&pager_);
  PointOracle oracle;
  const Coord n = 6 * kB * kB;
  for (Coord i = 0; i < n; ++i) {
    Point p{i % 100, 1000 + i, static_cast<uint64_t>(i)};
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (Coord a = 0; a <= 1000 + n; a += 101) {
    std::vector<Point> got;
    ASSERT_TRUE(tree.Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(AugmentedTreeTest, SpaceStaysLinear) {
  AugmentedMetablockTree tree(&pager_);
  const size_t n = 40 * kB * kB;
  auto points = RandomPointsAboveDiagonal(n, 50000, 6);
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  double pages_per_point_page =
      static_cast<double>(dev_.live_pages()) / (static_cast<double>(n) / kB);
  // Own orgs (3x) + TS (1x) + TD copies (<= ~1x) + control/index overhead.
  EXPECT_LE(pages_per_point_page, 12.0);
}

TEST_F(AugmentedTreeTest, AmortizedInsertIoWithinBound) {
  // Theorem 3.7: amortized O(log_B n + (log_B n)^2 / B) I/Os per insert.
  AugmentedMetablockTree tree(&pager_);
  const size_t n = 30 * kB * kB;
  auto points = RandomPointsAboveDiagonal(n, 100000, 7);
  dev_.ResetStats();
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  double per_insert =
      static_cast<double>(dev_.stats().TotalIos()) / static_cast<double>(n);
  double logb = std::log(static_cast<double>(n)) / std::log(kB);
  double bound = logb + logb * logb / kB;
  // Generous constant for buffer-page read-modify-write traffic.
  EXPECT_LE(per_insert, 12 * bound + 12) << "per_insert=" << per_insert;
}

TEST_F(AugmentedTreeTest, QueryIoAfterInsertionsWithinBound) {
  AugmentedMetablockTree tree(&pager_);
  const size_t n = 30 * kB * kB;
  auto points = RandomPointsAboveDiagonal(n, 100000, 8);
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  PointOracle oracle(points);
  double logb = std::log(static_cast<double>(n)) / std::log(kB);
  for (Coord a = 0; a <= 100000; a += 3331) {
    dev_.ResetStats();
    std::vector<Point> got;
    ASSERT_TRUE(tree.Query({a}, &got).ok());
    size_t t = oracle.Diagonal({a}).size();
    ASSERT_EQ(got.size(), t) << "a=" << a;
    double budget = 14 * logb + 8.0 * (static_cast<double>(t) / kB) + 30;
    EXPECT_LE(dev_.stats().device_reads, budget) << "a=" << a << " t=" << t;
  }
}

TEST_F(AugmentedTreeTest, DestroyReleasesEverything) {
  AugmentedMetablockTree tree(&pager_);
  auto points = RandomPointsAboveDiagonal(5 * kB * kB, 2000, 9);
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST_F(AugmentedTreeTest, AgreesWithStaticTree) {
  // Same point set: static and augmented trees must answer identically.
  auto points = RandomPointsAboveDiagonal(12 * kB * kB, 5000, 10);
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  auto st = MetablockTree::Build(&pager2, points);
  ASSERT_TRUE(st.ok());
  AugmentedMetablockTree dyn(&pager_);
  for (const Point& p : points) ASSERT_TRUE(dyn.Insert(p).ok());
  for (Coord a = 0; a <= 5000; a += 83) {
    std::vector<Point> got_s, got_d;
    ASSERT_TRUE(st->Query({a}, &got_s).ok());
    ASSERT_TRUE(dyn.Query({a}, &got_d).ok());
    SortPoints(&got_s);
    SortPoints(&got_d);
    EXPECT_EQ(got_s, got_d) << "a=" << a;
  }
}

// Parameterized: random interleavings across seeds and branching factors.
struct DynParam {
  uint32_t branching;
  size_t n;
  uint32_t seed;
};

class AugmentedTreeSweep : public ::testing::TestWithParam<DynParam> {};

TEST_P(AugmentedTreeSweep, OracleEquivalence) {
  const DynParam p = GetParam();
  BlockDevice dev(PageSizeForBranching(p.branching));
  Pager pager(&dev, 0);
  AugmentedMetablockTree tree(&pager);
  PointOracle oracle;
  auto points = RandomPointsAboveDiagonal(p.n, 4000, p.seed);
  std::mt19937 rng(p.seed ^ 0xBEEF);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(points[i]).ok());
    oracle.Insert(points[i]);
    if (i % 97 == 0) {
      Coord a = static_cast<Coord>(rng() % 4200) - 100;
      std::vector<Point> got;
      ASSERT_TRUE(tree.Query({a}, &got).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.Diagonal({a})) << "a=" << a << " after " << i;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AugmentedTreeSweep,
    ::testing::Values(DynParam{8, 500, 1}, DynParam{8, 3000, 2},
                      DynParam{8, 6000, 4}, DynParam{12, 2000, 3},
                      DynParam{16, 4000, 5}, DynParam{16, 12000, 6}));

}  // namespace
}  // namespace ccidx
