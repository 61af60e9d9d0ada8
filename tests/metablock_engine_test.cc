// Typed tests of MetablockEngine, the Section 3.2 update machinery shared
// by both augmented metablock trees: every case runs against the diagonal
// tree (AugmentedMetablockTree) and the 3-sided tree
// (AugmentedThreeSidedTree), checking answers against a multiset oracle in
// each family's own query shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>

#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

// Compares a family's answers with the oracle over a grid of queries
// spanning [0, domain): diagonal anchors, or 3-sided slabs of several
// widths.
void ExpectMatchesOracle(const AugmentedMetablockTree& tree,
                         const PointOracle& oracle, Coord domain) {
  for (Coord a = 0; a <= domain; a += std::max<Coord>(1, domain / 24)) {
    std::vector<Point> got;
    ASSERT_TRUE(tree.Query({a}, &got).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

void ExpectMatchesOracle(const AugmentedThreeSidedTree& tree,
                         const PointOracle& oracle, Coord domain) {
  const Coord step = std::max<Coord>(1, domain / 8);
  for (Coord xlo = 0; xlo < domain; xlo += step) {
    for (Coord width : {Coord{0}, step, 4 * step}) {
      for (Coord ylo = 0; ylo <= 2 * domain; ylo += 2 * step) {
        ThreeSidedQuery q{xlo, xlo + width, ylo};
        std::vector<Point> got;
        ASSERT_TRUE(tree.Query(q, &got).ok());
        SortPoints(&got);
        ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
      }
    }
  }
}

// The queries of DuplicateXRunsSurviveSplits, whose points have x in
// [0, 9) and y in [x, x + 5000): diagonal anchors across x and across y;
// for the 3-sided tree also the narrow slabs [x1, x1 + 3] at y thresholds
// across the y range, which cut the TS chains and TD filters of tie-heavy
// forks mid-range.
void ExpectMatchesOracleOnXRuns(const AugmentedMetablockTree& tree,
                                const PointOracle& oracle) {
  ExpectMatchesOracle(tree, oracle, 12);
  ExpectMatchesOracle(tree, oracle, 5000);
}

void ExpectMatchesOracleOnXRuns(const AugmentedThreeSidedTree& tree,
                                const PointOracle& oracle) {
  for (Coord x1 = 0; x1 < 9; ++x1) {
    for (Coord y = 0; y < 5000; y += 977) {
      ThreeSidedQuery q{x1, x1 + 3, y};
      std::vector<Point> got;
      ASSERT_TRUE(tree.Query(q, &got).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
    }
  }
  ExpectMatchesOracle(tree, oracle, 12);
  ExpectMatchesOracle(tree, oracle, 5000);
}

template <typename Tree>
class MetablockEngineTest : public ::testing::Test {
 protected:
  MetablockEngineTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

using AugmentedTrees =
    ::testing::Types<AugmentedMetablockTree, AugmentedThreeSidedTree>;
TYPED_TEST_SUITE(MetablockEngineTest, AugmentedTrees);

// TS chains come from a running top B^2 of the siblings, both in the bulk
// build and in every TS reorganization. CheckInvariants compares each
// chain under a node with an empty TD (nothing pushed since the chains
// were written) with the top B^2 of the siblings' stored points kept by
// sorted merge — the left siblings', and in the 3-sided tree also the
// right siblings'. Few distinct y values make the tie-break decide the
// cut.
TYPED_TEST(MetablockEngineTest, TsChainsAreTopB2OfLeftSiblings) {
  std::mt19937 rng(13);
  uint64_t id = 0;
  auto next = [&] {
    Coord x = static_cast<Coord>(rng() % 600);
    return Point{x, x + static_cast<Coord>(rng() % 5), id++};
  };
  std::vector<Point> initial;
  for (size_t i = 0; i < 30 * kB * kB; ++i) initial.push_back(next());
  auto tree = TypeParam::Build(&this->pager_, initial);
  ASSERT_TRUE(tree.ok());
  Status s = tree->CheckInvariants();
  ASSERT_TRUE(s.ok()) << s.message();
  for (int round = 0; round < 20; ++round) {
    for (size_t i = 0; i < 4 * kB * kB; ++i) {
      ASSERT_TRUE(tree->Insert(next()).ok());
    }
    s = tree->CheckInvariants();
    ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.message();
  }
}

// Delete's membership probe descends p.x's routing path instead of running
// a query. Interleave inserts and deletes over a small coordinate domain,
// so x ties straddle bulk-build child boundaries and split leaves (in the
// diagonal tree; 3-sided boundaries are tie-free), and check every found
// flag against a multiset oracle: present, absent, already deleted, and
// resurrected by a re-insert. The insert-heavy phase drives level I/II
// reorganizations, leaf splits and subtree rebuilds; the delete-heavy
// phase drives purges.
TYPED_TEST(MetablockEngineTest, DeleteProbeMatchesMultisetOracle) {
  constexpr Coord kDomain = 48;
  std::mt19937 rng(11);
  uint64_t next_id = 0;
  auto fresh = [&] {
    Coord x = static_cast<Coord>(rng() % kDomain);
    Coord y = x + static_cast<Coord>(rng() % kDomain);
    return Point{x, y, next_id++};
  };
  std::vector<Point> initial;
  for (int i = 0; i < 3 * static_cast<int>(kB * kB); ++i) {
    initial.push_back(fresh());
  }
  auto built = TypeParam::Build(&this->pager_, initial);
  ASSERT_TRUE(built.ok());
  TypeParam& tree = *built;
  PointOracle oracle(initial);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  std::vector<Point> deleted;  // tombstoned or purged: re-delete / re-insert
  size_t found_deletes = 0, missed_deletes = 0, resurrections = 0, purges = 0;
  auto run_phase = [&](int ops, uint32_t insert_pct) {
    for (int op = 0; op < ops; ++op) {
      if (rng() % 100 < insert_pct) {
        Point p = fresh();
        if (!deleted.empty() && rng() % 4 == 0) {
          size_t k = rng() % deleted.size();
          p = deleted[k];
          deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(k));
          resurrections++;
        }
        ASSERT_TRUE(tree.Insert(p).ok());
        oracle.Insert(p);
        continue;
      }
      Point p;
      switch (rng() % 4) {
        case 0:  // same coordinates as a stored point, unknown id
          p = oracle.points()[rng() % oracle.size()];
          p.id = next_id++;
          break;
        case 1:  // already deleted (tombstoned, or purged since)
          p = deleted.empty() ? fresh() : deleted[rng() % deleted.size()];
          break;
        default:  // present
          p = oracle.points()[rng() % oracle.size()];
          break;
      }
      const size_t dead_before = tree.outstanding_tombstones();
      bool found = false;
      ASSERT_TRUE(tree.Delete(p, &found).ok());
      ASSERT_EQ(found, oracle.Erase(p)) << "op " << op << " point (" << p.x
                                        << ", " << p.y << ", " << p.id << ")";
      if (found) {
        deleted.push_back(p);
        found_deletes++;
        if (tree.outstanding_tombstones() <= dead_before) purges++;
      } else {
        missed_deletes++;
      }
      ASSERT_EQ(tree.size(), oracle.size());
    }
  };
  run_phase(8000, 80);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ExpectMatchesOracle(tree, oracle, 2 * kDomain);
  run_phase(5000, 10);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ExpectMatchesOracle(tree, oracle, 2 * kDomain);
  EXPECT_GT(found_deletes, 0u);
  EXPECT_GT(missed_deletes, 0u);
  EXPECT_GT(resurrections, 0u);
  EXPECT_GT(purges, 0u);
}

// On tie-free input the probe reads O(1) pages per level: the control
// page, the update page, the vertical index and one block, the children
// chain.
TYPED_TEST(MetablockEngineTest, DeleteProbePinsPerLevelBounded) {
  const size_t n = 20 * kB * kB;
  std::vector<Coord> xs(2 * n);
  for (size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<Coord>(i);
  std::mt19937 rng(12);
  std::shuffle(xs.begin(), xs.end(), rng);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({xs[i], xs[i] + static_cast<Coord>(rng() % 4000), i});
  }
  auto built = TypeParam::Build(&this->pager_,
                                std::span<const Point>(pts).first(n / 2));
  ASSERT_TRUE(built.ok());
  TypeParam& tree = *built;
  for (size_t i = n / 2; i < n; ++i) ASSERT_TRUE(tree.Insert(pts[i]).ok());
  uint32_t height = 0;
  ASSERT_TRUE(tree.CheckInvariants(&height).ok());
  ASSERT_GE(height, 3u);

  for (size_t k = 0; k < 400; ++k) {
    const bool present = k % 2 == 0;
    // Absent probes reuse a stored point's coordinates under a new id, or
    // take an unused x, so they descend as deep as a hit.
    Point p = pts[rng() % n];
    if (!present) {
      if (k % 4 == 1) {
        p.id += n;
      } else {
        p = {xs[n + rng() % n], 0, 0};
        p.y = p.x + static_cast<Coord>(rng() % 4000);
      }
    }
    this->pager_.ResetStats();
    bool found = false;
    ASSERT_TRUE(tree.Delete(p, &found).ok());
    const uint64_t pins = this->pager_.CombinedStats().pin_requests;
    EXPECT_EQ(found, present) << "k=" << k;
    if (found) {
      // Resurrect so later probes see the same tree.
      ASSERT_TRUE(tree.Insert(p).ok());
    }
    EXPECT_LE(pins, 8u * height + 8u)
        << "k=" << k << " found=" << found << " height=" << height;
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

// Heavy x duplication stresses leaf splits: the diagonal tree splits at
// half, leaving ties on both sides of a boundary; the 3-sided tree splits
// tie-free and keeps an all-equal-x leaf whole.
TYPED_TEST(MetablockEngineTest, DuplicateXRunsSurviveSplits) {
  TypeParam tree(&this->pager_);
  PointOracle oracle;
  std::mt19937 rng(12);
  for (uint64_t i = 0; i < 10 * kB * kB; ++i) {
    Coord x = static_cast<Coord>(rng() % 9);
    Point p{x, x + static_cast<Coord>(rng() % 5000), i};
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  Status s = tree.CheckInvariants();
  ASSERT_TRUE(s.ok()) << s.message();
  ExpectMatchesOracleOnXRuns(tree, oracle);
}

}  // namespace
}  // namespace ccidx
