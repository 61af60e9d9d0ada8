// Tests for the Lemma 3.1 corner structure: correctness against the naive
// oracle, space bound (<= O(k/B) pages), and query I/O bound (~2t/B + O(1)).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ccidx/core/corner_structure.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 10;  // points per page

class CornerStructureTest : public ::testing::Test {
 protected:
  CornerStructureTest()
      : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(CornerStructureTest, EmptySet) {
  auto cs = CornerStructure::Build(&pager_, {});
  ASSERT_TRUE(cs.ok());
  std::vector<Point> out;
  ASSERT_TRUE(cs->Query(5, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(CornerStructureTest, SinglePoint) {
  auto cs = CornerStructure::Build(&pager_, {{3, 8, 1}});
  ASSERT_TRUE(cs.ok());
  std::vector<Point> out;
  ASSERT_TRUE(cs->Query(5, &out).ok());  // 3 <= 5 <= 8: hit
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
  out.clear();
  ASSERT_TRUE(cs->Query(2, &out).ok());  // x = 3 > 2: miss
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(cs->Query(9, &out).ok());  // y = 8 < 9: miss
  EXPECT_TRUE(out.empty());
}

TEST_F(CornerStructureTest, MatchesOracleOnRandomSets) {
  for (uint32_t seed : {1u, 7u, 21u}) {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    auto points = RandomPointsAboveDiagonal(kB * kB, 1000, seed);
    PointOracle oracle(points);
    auto cs = CornerStructure::Build(&pager, points);
    ASSERT_TRUE(cs.ok());
    for (Coord a = 0; a <= 1000; a += 13) {
      std::vector<Point> got;
      ASSERT_TRUE(cs->Query(a, &got).ok());
      SortPoints(&got);
      EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a << " seed=" << seed;
    }
  }
}

TEST_F(CornerStructureTest, MatchesOracleWithDuplicateCoordinates) {
  std::vector<Point> points;
  std::mt19937 rng(3);
  for (uint64_t i = 0; i < kB * kB; ++i) {
    Coord x = static_cast<Coord>(rng() % 10);  // heavy x/y collisions
    Coord y = x + static_cast<Coord>(rng() % 10);
    points.push_back({x, y, i});
  }
  PointOracle oracle(points);
  auto cs = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(cs.ok());
  for (Coord a = -1; a <= 20; ++a) {
    std::vector<Point> got;
    ASSERT_TRUE(cs->Query(a, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST_F(CornerStructureTest, SpaceWithinLemmaBound) {
  // Lemma 3.1: O(k/B) pages. The explicit sets total <= 2k points, the
  // vertical blocking k points, so data pages <= 3k/B + |C*| and the index
  // chains are O(k/B^2). Allow a small constant.
  const size_t k = kB * kB;
  auto points = RandomPointsAboveDiagonal(k, 10000, 11);
  auto cs = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(cs.ok());
  auto pages = cs->CountPages();
  ASSERT_TRUE(pages.ok());
  EXPECT_LE(*pages, 4 * (k / kB) + 8);
}

TEST_F(CornerStructureTest, QueryIoWithinLemmaBound) {
  // Lemma 3.1: a query reads at most 2t/B + c pages (c small constant; ours
  // is larger than the paper's 4 because the two index chains span several
  // pages — still O(1 + k/B^2)).
  const size_t k = kB * kB;
  auto points = RandomPointsAboveDiagonal(k, 10000, 13);
  PointOracle oracle(points);
  auto cs = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(cs.ok());
  for (Coord a = 0; a <= 10000; a += 307) {
    dev_.ResetStats();
    std::vector<Point> got;
    ASSERT_TRUE(cs->Query(a, &got).ok());
    size_t t = oracle.Diagonal({a}).size();
    ASSERT_EQ(got.size(), t);
    uint64_t budget = 2 * (t / kB) + 10;
    EXPECT_LE(dev_.stats().device_reads, budget) << "a=" << a << " t=" << t;
  }
}

TEST_F(CornerStructureTest, FreeReleasesAllPages) {
  auto points = RandomPointsAboveDiagonal(kB * kB, 500, 5);
  uint64_t before = dev_.live_pages();
  auto cs = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(cs.ok());
  EXPECT_GT(dev_.live_pages(), before);
  ASSERT_TRUE(cs->Free().ok());
  EXPECT_EQ(dev_.live_pages(), before);
}

TEST_F(CornerStructureTest, OpenByHeaderSeesSameData) {
  auto points = RandomPointsAboveDiagonal(60, 300, 9);
  PointOracle oracle(points);
  auto built = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(built.ok());
  CornerStructure reopened = CornerStructure::Open(&pager_, built->header());
  std::vector<Point> got;
  ASSERT_TRUE(reopened.Query(150, &got).ok());
  SortPoints(&got);
  EXPECT_EQ(got, oracle.Diagonal({150}));
}

// Degenerate geometry: all points on the diagonal itself.
TEST_F(CornerStructureTest, PointsOnDiagonal) {
  std::vector<Point> points;
  for (uint64_t i = 0; i < 50; ++i) {
    points.push_back({static_cast<Coord>(i), static_cast<Coord>(i), i});
  }
  PointOracle oracle(points);
  auto cs = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(cs.ok());
  for (Coord a = 0; a < 50; a += 7) {
    std::vector<Point> got;
    ASSERT_TRUE(cs->Query(a, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

// The Fig. 12 selection recounted by full scans of the x-sorted set: the
// corners C* the build must store, in descending x.
std::vector<Coord> BruteForceCStar(std::vector<Point> pts, uint32_t cap) {
  std::sort(pts.begin(), pts.end(), PointXOrder());
  std::vector<Coord> xhi;  // right boundary of each vertical block
  for (size_t i = 0; i < pts.size(); i += cap) {
    xhi.push_back(pts[std::min(pts.size(), i + cap) - 1].x);
  }
  std::vector<Coord> cstar;
  if (xhi.size() < 2) return cstar;
  cstar.push_back(xhi[xhi.size() - 2]);
  for (size_t i = xhi.size() - 2; i-- > 0;) {
    const Coord c = xhi[i];
    const Coord cj = cstar.back();
    if (c == cj) continue;
    size_t omega = 0, delta_plus = 0, delta_minus = 0;
    for (const Point& p : pts) {
      if (p.x <= c && p.y >= cj) omega++;
      if (p.x <= c && p.y >= c && p.y < cj) delta_plus++;
      if (p.x > c && p.x <= cj && p.y >= cj) delta_minus++;
    }
    if (delta_minus + delta_plus > omega + delta_plus) cstar.push_back(c);
  }
  return cstar;
}

// The build counts Fig. 12's sets from per-block sorted y arrays; the C*
// it stores must be the one the full-scan recount selects, including
// under heavy x and y ties.
TEST_F(CornerStructureTest, StoredCornersMatchFullScanRecount) {
  size_t nontrivial = 0;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    const size_t n = 1 + rng() % (2 * kB * kB);
    const Coord domain = (seed % 3 == 0) ? 8 : (seed % 3 == 1) ? 40 : 5000;
    std::vector<Point> points;
    for (uint64_t i = 0; i < n; ++i) {
      Coord x = static_cast<Coord>(rng() % domain);
      points.push_back({x, x + static_cast<Coord>(rng() % domain), i});
    }
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    auto cs = CornerStructure::Build(&pager, points);
    ASSERT_TRUE(cs.ok());
    std::vector<Coord> got;
    ASSERT_TRUE(cs->StoredCorners(&got).ok());
    std::vector<Coord> want = BruteForceCStar(points, kB);
    EXPECT_EQ(got, want) << "seed=" << seed << " n=" << n;
    if (want.size() > 1) nontrivial++;
  }
  EXPECT_GT(nontrivial, 8u);
}

// Parameterized sweep over set sizes, including > B^2 (the augmented tree
// grows metablocks to 2B^2 before splitting).
class CornerStructureSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CornerStructureSizeTest, OracleEquivalence) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto points = RandomPointsAboveDiagonal(GetParam(), 5000, 77);
  PointOracle oracle(points);
  auto cs = CornerStructure::Build(&pager, points);
  ASSERT_TRUE(cs.ok());
  std::mt19937 rng(123);
  for (int i = 0; i < 60; ++i) {
    Coord a = static_cast<Coord>(rng() % 5200) - 100;
    std::vector<Point> got;
    ASSERT_TRUE(cs->Query(a, &got).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CornerStructureSizeTest,
                         ::testing::Values(1, 5, kB, kB + 1, kB * kB / 2,
                                           kB * kB, 2 * kB * kB));

}  // namespace
}  // namespace ccidx
