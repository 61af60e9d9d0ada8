// Amortized-I/O regression tests for the dynamization layer (DESIGN.md
// §8) — the update-path mirror of build_test's sort-bound check.
//
// For each family, a deterministic 2^k-op update trace (interleaved
// inserts and deletes, short-interval workload so membership probes stay
// output-sparse) runs against a cold cache (capacity 0: every page access
// is a device transfer, the paper's cost model). The measured amortized
// device I/Os per update must stay within a constant factor of the bound
// documented in the family's header. The traces and structures are fully
// deterministic, so the measured counts are exact and the constants can
// stay tight without flakes.

#include <algorithm>
#include <cmath>
#include <ostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/bptree/bptree.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/dynamic/adapters.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/dynamic_pst.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 16;
constexpr Coord kDomain = 1 << 20;
constexpr size_t kN = 4096;      // initial records
constexpr size_t kOps = 2048;    // 2^11 updates per trace

double LogB(double n, double b) { return std::log(n) / std::log(b); }
double Log2(double n) { return std::log2(n); }

// Short spans (y - x <= 64): stabbing/probe sets stay O(1) blocks, so
// membership probes cost their search term, not a t/B reporting term.
Point ShortSpanPoint(std::mt19937_64& rng, uint64_t id) {
  std::uniform_int_distribution<Coord> d(0, kDomain - 65);
  std::uniform_int_distribution<Coord> len(0, 64);
  Coord x = d(rng);
  return {x, x + len(rng), id};
}

struct Trace {
  std::vector<Point> initial;
  std::vector<std::pair<bool, Point>> ops;  // (is_insert, point)
};

Trace MakeTrace(uint64_t seed) {
  Trace t;
  std::mt19937_64 rng(seed);
  uint64_t id = 0;
  for (size_t i = 0; i < kN; ++i) t.initial.push_back(ShortSpanPoint(rng, id++));
  std::vector<Point> live = t.initial;
  for (size_t i = 0; i < kOps; ++i) {
    if (i % 2 == 0) {
      Point p = ShortSpanPoint(rng, id++);
      t.ops.push_back({true, p});
      live.push_back(p);
    } else {
      size_t j = rng() % live.size();
      t.ops.push_back({false, live[j]});
      live.erase(live.begin() + j);
    }
  }
  return t;
}

// Runs the trace against `st` (Insert/Delete surface) and returns the
// measured amortized device I/Os per update.
template <typename St>
double MeasureUpdates(BlockDevice* dev, St* st, const Trace& t) {
  dev->ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    if (is_insert) {
      Status s = st->Insert(p);
      EXPECT_TRUE(s.ok()) << s.ToString();
    } else {
      bool found = false;
      Status s = st->Delete(p, &found);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  IoStats used = dev->stats();
  return static_cast<double>(used.device_reads + used.device_writes) /
         static_cast<double>(t.ops.size());
}

template <typename St, typename Make>
void ExpectAmortizedWithin(Make make, double bound, double factor,
                           const char* what) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(0x10);
  auto st = make(&pager, t);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  double per_update = MeasureUpdates(&dev, &*st, t);
  ::testing::Test::RecordProperty("per_update_ios", per_update);
  EXPECT_LE(per_update, factor * bound)
      << what << ": measured " << per_update << " I/Os per update, bound "
      << bound << " (factor " << factor << ")";
  // And the bound is not vacuous: the measurement is within sight of it.
  EXPECT_GT(per_update, 0.0);
}

TEST(UpdateIoBound, BPlusTree) {
  // Worst-case O(log_B n) per update.
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(0x13);
  std::vector<BtEntry> init;
  for (const Point& p : t.initial) init.push_back({p.x, p.id, p.y});
  std::sort(init.begin(), init.end());
  auto st = BPlusTree::BulkLoad(&pager, init);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  dev.ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    if (is_insert) {
      ASSERT_TRUE(st->Insert(p.x, p.id, p.y).ok());
    } else {
      bool found = false;
      ASSERT_TRUE(st->Delete(p.x, p.id, &found).ok());
    }
  }
  IoStats used = dev.stats();
  double per_update =
      static_cast<double>(used.device_reads + used.device_writes) /
      static_cast<double>(t.ops.size());
  EXPECT_LE(per_update, 6.0 * LogB(kN, kB))
      << "B+-tree: " << per_update << " I/Os per update";
}

TEST(UpdateIoBound, DynamicPst) {
  // Amortized O(log2 n + (log2 n)^2 / B).
  ExpectAmortizedWithin<DynamicPst>(
      [](Pager* pager, const Trace& t) {
        return DynamicPst::Build(pager,
                                 std::vector<Point>(t.initial.begin(),
                                                    t.initial.end()));
      },
      Log2(kN) + Log2(kN) * Log2(kN) / kB, /*factor=*/6.0, "dynamic PST");
}

TEST(UpdateIoBound, ExternalPstShadowPath) {
  // Shadow-path insert rewrites the routing path (2 transfers per level:
  // the planning read + the replacement write) + the amortized rebuild
  // charge: same O(log2 n + (log2 n)^2/B) envelope, larger constant.
  ExpectAmortizedWithin<ExternalPst>(
      [](Pager* pager, const Trace& t) {
        return ExternalPst::Build(pager,
                                  std::vector<Point>(t.initial.begin(),
                                                     t.initial.end()));
      },
      Log2(kN) + Log2(kN) * Log2(kN) / kB, /*factor=*/10.0,
      "external PST (shadow path)");
}

TEST(UpdateIoBound, AugmentedMetablockTree) {
  // Insert amortized O(log_B n + (log_B n)^2/B) (Thm 3.7); weak delete =
  // membership probe O(log_B n + t_probe/B) + amortized purge charge
  // O((log_B n)/B). Short spans keep t_probe = O(B).
  double lb = LogB(kN, kB);
  ExpectAmortizedWithin<AugmentedMetablockTree>(
      [](Pager* pager, const Trace& t) {
        return AugmentedMetablockTree::Build(
            pager, std::vector<Point>(t.initial.begin(), t.initial.end()));
      },
      lb + lb * lb / kB + 1.0, /*factor=*/20.0, "augmented metablock tree");
}

TEST(UpdateIoBound, DynamicMetablockTree) {
  // Logarithmic method: amortized insert O((log2(n/B) * log_B n)/B) plus
  // the per-op search terms; delete probe O(log_B n + t_probe/B) over
  // <= log2(n/B) levels.
  double levels = Log2(static_cast<double>(kN) / kB) + 1;
  double bound = levels * (LogB(kN, kB) + 1.0);
  ExpectAmortizedWithin<DynamicMetablockTree>(
      [](Pager* pager, const Trace& t) {
        return DynamicMetablockTree::Build(
            pager, std::vector<Point>(t.initial.begin(), t.initial.end()));
      },
      bound, /*factor=*/8.0, "dynamized metablock tree");
}

TEST(UpdateIoBound, IntervalIndex) {
  // Endpoint B+-tree O(log_B n) + stabbing-tree amortized insert /
  // tombstone delete (short intervals keep probes sparse).
  double lb = LogB(kN, kB);
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(0x11);
  std::vector<Interval> init;
  for (const Point& p : t.initial) init.push_back({p.x, p.y, p.id});
  auto st = IntervalIndex::Build(&pager, std::move(init));
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  dev.ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    if (is_insert) {
      Status s = st->Insert({p.x, p.y, p.id});
      ASSERT_TRUE(s.ok()) << s.ToString();
    } else {
      bool found = false;
      Status s = st->Delete({p.x, p.y, p.id}, &found);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  IoStats used = dev.stats();
  double per_update =
      static_cast<double>(used.device_reads + used.device_writes) /
      static_cast<double>(t.ops.size());
  double bound = 2 * lb + lb * lb / kB + 1.0;
  EXPECT_LE(per_update, 20.0 * bound)
      << "interval index: " << per_update << " I/Os per update, bound "
      << bound;
}

TEST(UpdateIoBound, SimpleClassIndex) {
  // Worst-case O(log2 c * log_B n) per update (Theorem 2.6).
  ClassHierarchy h;
  uint32_t root = *h.AddClass("root");
  for (int i = 0; i < 3; ++i) {
    uint32_t mid = *h.AddClass("mid", root);
    for (int j = 0; j < 4; ++j) (void)*h.AddClass("leaf", mid);
  }
  ASSERT_TRUE(h.Freeze().ok());
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(0x12);
  std::vector<Object> init;
  for (const Point& p : t.initial) {
    init.push_back({p.id, static_cast<uint32_t>(p.id % h.size()),
                    p.x});
  }
  auto st = SimpleClassIndex::Build(&pager, &h, std::move(init));
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  dev.ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    Object o{p.id, static_cast<uint32_t>(p.id % h.size()), p.x};
    if (is_insert) {
      ASSERT_TRUE(st->Insert(o).ok());
    } else {
      bool found = false;
      ASSERT_TRUE(st->Delete(o, &found).ok());
    }
  }
  IoStats used = dev.stats();
  double per_update =
      static_cast<double>(used.device_reads + used.device_writes) /
      static_cast<double>(t.ops.size());
  double bound = Log2(h.size()) * LogB(kN, kB);
  EXPECT_LE(per_update, 6.0 * bound)
      << "simple class index: " << per_update << " I/Os per update, bound "
      << bound;
}

// ---------------------------------------------------------------------------
// Exact-I/O golden counts for the four metablock trees.
//
// Capacity 0 turns speculation off, so every figure below is an exact
// device count on every backend. Each phase records device reads, device
// writes and page allocations: the bulk build over the trace's initial
// set, the trace's inserts, the trace's deletes, a fixed query set (with
// the deletes' tombstones outstanding), and for the augmented trees a
// purge phase that DeleteKnown's initial points until the global purge
// rebuild fires. The constants pin the trees' page-level behaviour: a
// refactor of the update machinery or the own-point organizations must
// leave them unchanged.
// ---------------------------------------------------------------------------

struct PhaseIo {
  uint64_t reads;
  uint64_t writes;
  uint64_t allocs;

  bool operator==(const PhaseIo&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PhaseIo& p) {
  return os << "{" << p.reads << ", " << p.writes << ", " << p.allocs << "}";
}

struct GoldenIo {
  PhaseIo build, inserts, deletes, queries, purge;
};

// Measures one phase: the device counters before and after `run`.
template <typename Run>
PhaseIo MeasurePhase(BlockDevice* dev, Run run) {
  IoStats before = dev->stats();
  run();
  IoStats d = dev->stats() - before;
  return {d.device_reads, d.device_writes, d.pages_allocated};
}

std::vector<DiagonalQuery> GoldenDiagonalQueries() {
  std::mt19937_64 rng(0x51);
  std::vector<DiagonalQuery> qs;
  for (int i = 0; i < 64; ++i) {
    qs.push_back({static_cast<Coord>(rng() % kDomain)});
  }
  return qs;
}

std::vector<ThreeSidedQuery> GoldenThreeSidedQueries() {
  std::mt19937_64 rng(0x52);
  std::vector<ThreeSidedQuery> qs;
  for (int i = 0; i < 64; ++i) {
    Coord x1 = static_cast<Coord>(rng() % kDomain);
    Coord x2 = static_cast<Coord>(rng() % kDomain);
    if (x1 > x2) std::swap(x1, x2);
    qs.push_back({x1, x2, static_cast<Coord>(rng() % kDomain)});
  }
  return qs;
}

template <typename Tree, typename Query>
PhaseIo MeasureQueries(BlockDevice* dev, const Tree& tree,
                       const std::vector<Query>& qs) {
  return MeasurePhase(dev, [&] {
    for (const Query& q : qs) {
      std::vector<Point> out;
      Status s = tree.Query(q, &out);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });
}

template <typename Tree>
GoldenIo MeasureStaticGolden(const std::vector<Point>& initial,
                             const auto& queries) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  GoldenIo g{};
  Result<Tree> tree = Status::FailedPrecondition("unbuilt");
  g.build = MeasurePhase(&dev, [&] {
    tree = Tree::Build(&pager, std::vector<Point>(initial));
  });
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) return g;
  g.queries = MeasureQueries(&dev, *tree, queries);
  return g;
}

template <typename Tree>
GoldenIo MeasureAugmentedGolden(const Trace& t, const auto& queries) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  GoldenIo g{};
  Result<Tree> built = Status::FailedPrecondition("unbuilt");
  g.build = MeasurePhase(&dev, [&] {
    built = Tree::Build(&pager, std::vector<Point>(t.initial));
  });
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return g;
  Tree& tree = *built;
  std::vector<Point> deleted;
  g.inserts = MeasurePhase(&dev, [&] {
    for (const auto& [is_insert, p] : t.ops) {
      if (is_insert) {
        EXPECT_TRUE(tree.Insert(p).ok());
      }
    }
  });
  g.deletes = MeasurePhase(&dev, [&] {
    for (const auto& [is_insert, p] : t.ops) {
      if (is_insert) continue;
      bool found = false;
      EXPECT_TRUE(tree.Delete(p, &found).ok());
      EXPECT_TRUE(found);
      deleted.push_back(p);
    }
  });
  g.queries = MeasureQueries(&dev, tree, queries);
  g.purge = MeasurePhase(&dev, [&] {
    for (const Point& p : t.initial) {
      if (std::find(deleted.begin(), deleted.end(), p) != deleted.end()) {
        continue;
      }
      EXPECT_TRUE(tree.DeleteKnown(p).ok());
      if (tree.outstanding_tombstones() == 0) break;  // the purge fired
    }
  });
  EXPECT_EQ(tree.outstanding_tombstones(), 0u);
  Status s = tree.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return g;
}

void ExpectGolden(const GoldenIo& got, const GoldenIo& want) {
  EXPECT_EQ(got.build, want.build) << "bulk build";
  EXPECT_EQ(got.inserts, want.inserts) << "inserts";
  EXPECT_EQ(got.deletes, want.deletes) << "deletes";
  EXPECT_EQ(got.queries, want.queries) << "queries";
  EXPECT_EQ(got.purge, want.purge) << "purge";
}

// The static trees have no update phases: theirs stay zero.
TEST(ExactIoGolden, MetablockTree) {
  Trace t = MakeTrace(0x20);
  ExpectGolden(
      MeasureStaticGolden<MetablockTree>(t.initial, GoldenDiagonalQueries()),
      {{1216, 2292, 2292}, {}, {}, {565, 0, 0}, {}});
}

TEST(ExactIoGolden, ThreeSidedTree) {
  Trace t = MakeTrace(0x20);
  ExpectGolden(MeasureStaticGolden<ThreeSidedTree>(
                   t.initial, GoldenThreeSidedQueries()),
               {{1216, 3024, 3024}, {}, {}, {5860, 0, 0}, {}});
}

TEST(ExactIoGolden, AugmentedMetablockTree) {
  ExpectGolden(MeasureAugmentedGolden<AugmentedMetablockTree>(
                   MakeTrace(0x20), GoldenDiagonalQueries()),
               {{1216, 2310, 2310},
                {13553, 14748, 12262},
                {6381, 0, 0},
                {740, 0, 0},
                {1445, 1220, 1220}});
}

TEST(ExactIoGolden, AugmentedThreeSidedTree) {
  ExpectGolden(MeasureAugmentedGolden<AugmentedThreeSidedTree>(
                   MakeTrace(0x20), GoldenThreeSidedQueries()),
               {{1216, 3042, 3042},
                {17534, 16493, 14007},
                {7351, 0, 0},
                {6238, 0, 0},
                {2266, 1502, 1502}});
}

}  // namespace
}  // namespace ccidx
