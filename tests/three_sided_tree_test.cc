// Tests for the 3-sided metablock tree variant (Section 4, Lemma 4.3):
// oracle equivalence across query shapes, heap/TS invariants, space, and
// the O(log_B n + log2 B + t/B) I/O shape.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

class ThreeSidedTreeTest : public ::testing::Test {
 protected:
  ThreeSidedTreeTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(ThreeSidedTreeTest, EmptyTree) {
  auto tree = ThreeSidedTree::Build(&pager_, std::vector<Point>{});
  ASSERT_TRUE(tree.ok());
  std::vector<Point> out;
  ASSERT_TRUE(tree->Query({0, 10, 0}, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(ThreeSidedTreeTest, SingleLeaf) {
  auto points = RandomPoints(kB * kB / 2, 100, 1);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord x1 = 0; x1 <= 100; x1 += 17) {
    for (Coord y = 0; y <= 100; y += 23) {
      ThreeSidedQuery q{x1, x1 + 30, y};
      std::vector<Point> got;
      ASSERT_TRUE(tree->Query(q, &got).ok());
      SortPoints(&got);
      EXPECT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
    }
  }
}

TEST_F(ThreeSidedTreeTest, MultiLevelMatchesOracle) {
  auto points = RandomPoints(25 * kB * kB, 4000, 2);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  std::mt19937 rng(3);
  for (int i = 0; i < 150; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 4000);
    Coord x2 = static_cast<Coord>(rng() % 4000);
    if (x1 > x2) std::swap(x1, x2);
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 4000)};
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query(q, &got).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
  }
}

TEST_F(ThreeSidedTreeTest, NarrowSlabQueries) {
  // Narrow x-slabs keep the whole query on the single path / one child.
  auto points = RandomPoints(20 * kB * kB, 2000, 4);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  for (Coord x = 0; x <= 2000; x += 97) {
    ThreeSidedQuery q{x, x, 0};  // degenerate slab: a vertical ray
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query(q, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
  }
}

TEST_F(ThreeSidedTreeTest, FullWidthQueries) {
  // xlo = min, xhi = max: equivalent to "everything above ylo".
  auto points = RandomPoints(15 * kB * kB, 1000, 5);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  for (Coord y = 0; y <= 1000; y += 53) {
    ThreeSidedQuery q{kCoordMin, kCoordMax, y};
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query(q, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.ThreeSided(q)) << "y=" << y;
  }
}

TEST_F(ThreeSidedTreeTest, TwoSidedSpecialCases) {
  // 2-sided queries: one vertical side at infinity (Fig. 1 chain).
  auto points = RandomPoints(15 * kB * kB, 1500, 6);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  for (Coord v = 0; v <= 1500; v += 103) {
    ThreeSidedQuery left{kCoordMin, v, v / 2};
    ThreeSidedQuery right{v, kCoordMax, v / 3};
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query(left, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.ThreeSided(left)) << left.ToString();
    got.clear();
    ASSERT_TRUE(tree->Query(right, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.ThreeSided(right)) << right.ToString();
  }
}

TEST_F(ThreeSidedTreeTest, DuplicateCoordinates) {
  std::vector<Point> points;
  std::mt19937 rng(7);
  for (uint64_t i = 0; i < 12 * kB * kB; ++i) {
    points.push_back({static_cast<Coord>(rng() % 25),
                      static_cast<Coord>(rng() % 25), i});
  }
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord x1 = 0; x1 < 25; x1 += 3) {
    for (Coord y = 0; y < 25; y += 3) {
      ThreeSidedQuery q{x1, x1 + 5, y};
      std::vector<Point> got;
      ASSERT_TRUE(tree->Query(q, &got).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
    }
  }
}

// Both TS chains of every child come from running top-B^2 sets, TS-left in
// x order and TS-right in reverse. CheckInvariants compares them with the
// siblings' top B^2 kept by sorted merge; few distinct y values make the
// tie-break decide the cut.
TEST_F(ThreeSidedTreeTest, TsChainsAreTopB2OfSiblings) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    std::vector<Point> points;
    const size_t n = (10 + 10 * seed) * kB * kB;
    for (uint64_t i = 0; i < n; ++i) {
      points.push_back({static_cast<Coord>(rng() % 400),
                        static_cast<Coord>(rng() % (seed * 3)), i});
    }
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    auto tree = ThreeSidedTree::Build(&pager, points);
    ASSERT_TRUE(tree.ok());
    Status s = tree->CheckInvariants();
    EXPECT_TRUE(s.ok()) << "seed=" << seed << ": " << s.message();
  }
}

TEST_F(ThreeSidedTreeTest, SpaceIsLinear) {
  const size_t n = 40 * kB * kB;
  auto points = RandomPoints(n, 100000, 8);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  double pages_per_point_page =
      static_cast<double>(dev_.live_pages()) / (static_cast<double>(n) / kB);
  // vertical + horizontal + own PST (~3x), two TS (~2x), children PST
  // (~1x), plus control/index overhead.
  EXPECT_LE(pages_per_point_page, 12.0);
}

TEST_F(ThreeSidedTreeTest, QueryIoWithinLemmaBound) {
  const size_t n = 60 * kB * kB;
  auto points = RandomPoints(n, 100000, 9);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  double logb_n = std::log(static_cast<double>(n)) / std::log(kB);
  double log2_b = std::log2(static_cast<double>(kB));
  std::mt19937 rng(10);
  for (int i = 0; i < 50; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 100000);
    Coord x2 = std::min<Coord>(99999, x1 + static_cast<Coord>(rng() % 30000));
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 100000)};
    size_t t = oracle.ThreeSided(q).size();
    dev_.ResetStats();
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query(q, &got).ok());
    ASSERT_EQ(got.size(), t);
    double budget =
        10 * logb_n + 12 * log2_b + 8.0 * (static_cast<double>(t) / kB) + 30;
    EXPECT_LE(dev_.stats().device_reads, budget) << q.ToString() << " t=" << t;
  }
}

TEST_F(ThreeSidedTreeTest, DestroyReleasesEverything) {
  auto points = RandomPoints(10 * kB * kB, 3000, 11);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(tree->Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST_F(ThreeSidedTreeTest, AgreesWithExternalPst) {
  auto points = RandomPoints(20 * kB * kB, 5000, 12);
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  auto pst = ExternalPst::Build(&pager2, points);
  ASSERT_TRUE(pst.ok());
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  std::mt19937 rng(13);
  for (int i = 0; i < 60; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 5000);
    Coord x2 = static_cast<Coord>(rng() % 5000);
    if (x1 > x2) std::swap(x1, x2);
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 5000)};
    std::vector<Point> a, b;
    ASSERT_TRUE(tree->Query(q, &a).ok());
    ASSERT_TRUE(pst->Query(q, &b).ok());
    SortPoints(&a);
    SortPoints(&b);
    ASSERT_EQ(a, b) << q.ToString();
  }
}

struct TsParam {
  uint32_t branching;
  size_t n;
  uint32_t seed;
};

class ThreeSidedSweep : public ::testing::TestWithParam<TsParam> {};

TEST_P(ThreeSidedSweep, OracleEquivalence) {
  const TsParam p = GetParam();
  BlockDevice dev(PageSizeForBranching(p.branching));
  Pager pager(&dev, 0);
  auto points = RandomPoints(p.n, 3000, p.seed);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  std::mt19937 rng(p.seed ^ 0xABCD);
  for (int i = 0; i < 60; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 3000);
    Coord x2 = static_cast<Coord>(rng() % 3000);
    if (x1 > x2) std::swap(x1, x2);
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 3000)};
    std::vector<Point> got;
    ASSERT_TRUE(tree->Query(q, &got).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreeSidedSweep,
    ::testing::Values(TsParam{4, 1000, 7}, TsParam{6, 300, 1},
                      TsParam{6, 2000, 2},
                      TsParam{8, 1000, 3}, TsParam{8, 8000, 4},
                      TsParam{16, 5000, 5}, TsParam{16, 20000, 6}));

}  // namespace
}  // namespace ccidx
