// Tests for the static metablock tree (Section 3.1, Theorem 3.2):
// correctness vs oracle, space O(n/B), query I/O O(log_B n + t/B), and the
// Prop. 3.3 lower-bound workload.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ccidx/core/metablock_tree.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

class MetablockTreeTest : public ::testing::Test {
 protected:
  MetablockTreeTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(MetablockTreeTest, EmptyTree) {
  auto tree = MetablockTree::Build(&pager_, std::vector<Point>{});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0u);
  std::vector<Point> out;
  ASSERT_TRUE(tree->Query({5}, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(MetablockTreeTest, RejectsPointsBelowDiagonal) {
  auto tree = MetablockTree::Build(&pager_, std::vector<Point>{{5, 3, 0}});
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MetablockTreeTest, BranchingDerivedFromPageSize) {
  auto tree = MetablockTree::Build(&pager_, std::vector<Point>{{1, 2, 0}});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->branching(), kB);
  EXPECT_EQ(tree->metablock_capacity(), kB * kB);
}

TEST_F(MetablockTreeTest, SingleLeafMatchesOracle) {
  auto points = RandomPointsAboveDiagonal(kB * kB / 2, 100, 1);
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord a = -5; a <= 105; a += 3) {
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(MetablockTreeTest, MultiLevelMatchesOracle) {
  // n = 20 * B^2 forces several levels at B = 8.
  auto points = RandomPointsAboveDiagonal(20 * kB * kB, 4000, 2);
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord a = 0; a <= 4000; a += 59) {
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(MetablockTreeTest, HeavyDuplicateCoordinates) {
  std::vector<Point> points;
  std::mt19937 rng(5);
  for (uint64_t i = 0; i < 10 * kB * kB; ++i) {
    Coord x = static_cast<Coord>(rng() % 20);
    points.push_back({x, x + static_cast<Coord>(rng() % 20), i});
  }
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord a = -1; a <= 40; ++a) {
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

// Every child's TS chain is built from a running top B^2 of its left
// siblings; CheckInvariants compares each chain with the top B^2 of the
// siblings' points kept by sorted merge. Few distinct y values make the
// (y, x, id) tie-break decide which points make the cut.
TEST_F(MetablockTreeTest, TsChainsAreTopB2OfLeftSiblings) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    std::vector<Point> points;
    const size_t n = (10 + 10 * seed) * kB * kB;
    for (uint64_t i = 0; i < n; ++i) {
      Coord x = static_cast<Coord>(rng() % 400);
      points.push_back({x, x + static_cast<Coord>(rng() % (seed * 3)), i});
    }
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    auto tree = MetablockTree::Build(&pager, points);
    ASSERT_TRUE(tree.ok());
    Status s = tree->CheckInvariants();
    EXPECT_TRUE(s.ok()) << "seed=" << seed << ": " << s.message();
  }
}

TEST_F(MetablockTreeTest, SpaceIsLinear) {
  // Theorem 3.2: O(n/B) pages. Our constant: each point appears in the
  // vertical + horizontal blockings, possibly a corner structure (<= 3k),
  // and once in at most one TS structure, plus control/index overhead.
  const size_t n = 50 * kB * kB;
  auto points = RandomPointsAboveDiagonal(n, 100000, 3);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  double pages_per_point_page = static_cast<double>(dev_.live_pages()) /
                                (static_cast<double>(n) / kB);
  EXPECT_LE(pages_per_point_page, 8.0);
}

TEST_F(MetablockTreeTest, QueryIoWithinTheoremBound) {
  const size_t n = 60 * kB * kB;  // ~3840 points
  auto points = RandomPointsAboveDiagonal(n, 100000, 4);
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  double logb_n = std::log(static_cast<double>(n)) / std::log(kB);
  for (Coord a = 0; a <= 100000; a += 1777) {
    dev_.ResetStats();
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    size_t t = oracle.Diagonal({a}).size();
    ASSERT_EQ(got.size(), t);
    // Generous constants: c1 * log_B n + c2 * t/B + c3.
    double budget = 10 * logb_n + 6.0 * (static_cast<double>(t) / kB) + 20;
    EXPECT_LE(dev_.stats().device_reads, budget)
        << "a=" << a << " t=" << t;
  }
}

TEST_F(MetablockTreeTest, LowerBoundStaircaseExactHits) {
  // Prop. 3.3 workload: points (2i, 2i+2); a query at 2i+1 matches exactly
  // the single point (2i, 2i+2).
  auto points = LowerBoundStaircase(300);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < 300; i += 11) {
    std::vector<Point> got;
    Coord a = static_cast<Coord>(2 * i + 1);
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    ASSERT_EQ(got.size(), 1u) << "a=" << a;
    EXPECT_EQ(got[0].id, i);
  }
}

TEST_F(MetablockTreeTest, DestroyReleasesEverything) {
  auto points = RandomPointsAboveDiagonal(10 * kB * kB, 5000, 6);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(tree->Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST_F(MetablockTreeTest, QueryOutsideDomain) {
  auto points = RandomPointsAboveDiagonal(200, 1000, 7);
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  std::vector<Point> got;
  ASSERT_TRUE(tree->Query({-100}, &got).ok());  // left of all points
  EXPECT_EQ(got.size(), oracle.Diagonal({-100}).size());
  got.clear();
  ASSERT_TRUE(tree->Query({99999}, &got).ok());  // above all points
  EXPECT_TRUE(got.empty());
}

// Randomized sweep across sizes and branching factors.
struct MbtParam {
  uint32_t branching;
  size_t n;
  uint32_t seed;
};

class MetablockTreeSweep : public ::testing::TestWithParam<MbtParam> {};

TEST_P(MetablockTreeSweep, OracleEquivalence) {
  const MbtParam p = GetParam();
  BlockDevice dev(PageSizeForBranching(p.branching));
  Pager pager(&dev, 0);
  auto points = RandomPointsAboveDiagonal(p.n, 3000, p.seed);
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  std::mt19937 rng(p.seed ^ 0xF00D);
  for (int i = 0; i < 50; ++i) {
    Coord a = static_cast<Coord>(rng() % 3200) - 100;
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query({a}, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetablockTreeSweep,
    ::testing::Values(MbtParam{4, 17, 1}, MbtParam{4, 200, 2},
                      MbtParam{4, 2000, 3}, MbtParam{8, 1000, 4},
                      MbtParam{8, 5000, 5}, MbtParam{16, 3000, 6},
                      MbtParam{16, 10000, 7}, MbtParam{32, 8000, 8}));

}  // namespace
}  // namespace ccidx
