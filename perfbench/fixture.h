// The benchmark's fixtures (bulk-loaded index families on one device and
// pool), the seeded request generators, and the answer checks against
// the testutil oracles.

#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/serve/frame.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"
#include "harness.h"

namespace perfbench {

using ccidx::BPlusTree;
using ccidx::BtEntry;
using ccidx::Coord;
using ccidx::Interval;
using ccidx::Point;
using ccidx::serve::Request;
using ccidx::serve::RequestType;
using ccidx::serve::Response;
using ccidx::serve::ResultMode;

/// Records per page (the paper's B) for every family of a fixture.
inline constexpr uint32_t kB = 64;
inline constexpr Coord kDomain = Coord{1} << 30;
/// Every family's record (Point, BtEntry, Interval) is three 64-bit words.
inline constexpr double kRecordBytes = 24;

/// Record counts per family; 0 leaves the family out.
struct FixtureSpec {
  size_t metablock = 0;
  size_t three_sided = 0;
  size_t interval = 0;
  size_t btree = 0;
  size_t amt = 0;
  uint32_t pool_pages = 0;
  ccidx::BlockDeviceOptions device;
};

/// What a request exercises: the family operation and its result mode.
enum class Op : uint8_t {
  kDiagLimit,
  kDiagRecords,
  kRangeCount,
  kRangeRecords,
  kPoint,
  kStabLimit,
  kStabRecords,
  kThreeCount,
  kThreeRecords,
  kWriteRangeCount,
  kUpdate,
};

/// Per-layer metric prefix of each Op (family.op).
inline const char* OpName(Op op) {
  switch (op) {
    case Op::kDiagLimit: return "core.metablock.diagonal_limit";
    case Op::kDiagRecords: return "core.metablock.diagonal_records";
    case Op::kRangeCount: return "bptree.range_count";
    case Op::kRangeRecords: return "bptree.range_records";
    case Op::kPoint: return "bptree.point";
    case Op::kStabLimit: return "interval.stab_limit";
    case Op::kStabRecords: return "interval.stab_records";
    case Op::kThreeCount: return "core.three_sided.count";
    case Op::kThreeRecords: return "core.three_sided.records";
    case Op::kWriteRangeCount: return "bptree.range_count";
    default: return "update";
  }
}

/// The external-sort bound (n/B) * max(1, log_{M/B}(n/B)) with M = B^2.
inline double SortBound(double n) {
  double pages = n / kB;
  return pages * std::max(1.0, std::log(pages) / std::log(double{kB}));
}

struct Fixture {
  std::unique_ptr<ccidx::BlockDevice> device;
  std::unique_ptr<ccidx::Pager> pager;
  std::vector<Point> mb_points, ts_points, amt_points;
  std::vector<Interval> intervals;
  int64_t bt_n = 0;  // B+-tree holds (2i, i, 0) for i < bt_n
  std::optional<ccidx::MetablockTree> metablock;
  std::optional<ccidx::ThreeSidedTree> three_sided;
  std::optional<ccidx::IntervalIndex> interval;
  std::optional<BPlusTree> btree;
  std::optional<ccidx::AugmentedMetablockTree> amt;
  std::map<std::string, double> build_s;  // per family
  double build_ios = 0;
  double sort_bound = 0;
  double records = 0;

  double LiveBytes() const {
    return static_cast<double>(device->live_pages()) * device->page_size();
  }
};

template <typename T>
T Must(ccidx::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(*r);
}

inline void MustOk(const ccidx::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(3);
  }
}

/// Bulk-loads every family the spec names onto one device and pool, and
/// flushes the pool so the device holds the whole fixture.
inline std::unique_ptr<Fixture> BuildFixture(const FixtureSpec& spec,
                                             uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->device = std::make_unique<ccidx::BlockDevice>(
      ccidx::PageSizeForBranching(kB), spec.device);
  fx->pager = std::make_unique<ccidx::Pager>(fx->device.get(), spec.pool_pages);
  ccidx::Pager* pager = fx->pager.get();
  auto gen_seed = [&](uint64_t k) {
    return static_cast<uint32_t>(Mix64(seed * 16 + k));
  };
  auto timed = [&](const char* family, size_t n, auto&& build) {
    Clock::time_point t0 = Clock::now();
    build();
    fx->build_s[family] = SecondsBetween(t0, Clock::now());
    fx->sort_bound += SortBound(static_cast<double>(n));
    fx->records += static_cast<double>(n);
  };
  if (spec.btree > 0) {
    fx->bt_n = static_cast<int64_t>(spec.btree);
    timed("bptree", spec.btree, [&] {
      std::vector<BtEntry> entries(spec.btree);
      for (size_t i = 0; i < spec.btree; ++i) {
        entries[i] = {static_cast<int64_t>(2 * i), i, 0};
      }
      fx->btree = Must(BPlusTree::BulkLoad(pager, entries), "bptree build");
    });
  }
  if (spec.metablock > 0) {
    fx->mb_points = ccidx::RandomPointsAboveDiagonal(spec.metablock, kDomain,
                                                     gen_seed(1));
    timed("core.metablock", spec.metablock, [&] {
      fx->metablock =
          Must(ccidx::MetablockTree::Build(pager, std::span(fx->mb_points)),
               "metablock build");
    });
  }
  if (spec.three_sided > 0) {
    fx->ts_points = ccidx::RandomPoints(spec.three_sided, kDomain, gen_seed(2));
    timed("core.three_sided", spec.three_sided, [&] {
      fx->three_sided =
          Must(ccidx::ThreeSidedTree::Build(pager, std::span(fx->ts_points)),
               "three-sided build");
    });
  }
  if (spec.interval > 0) {
    fx->intervals = ccidx::RandomIntervals(
        spec.interval, kDomain, ccidx::IntervalWorkload::kUniform, gen_seed(3));
    timed("interval", spec.interval, [&] {
      fx->interval =
          Must(ccidx::IntervalIndex::Build(pager, std::span(fx->intervals)),
               "interval build");
    });
  }
  if (spec.amt > 0) {
    fx->amt_points =
        ccidx::RandomPointsAboveDiagonal(spec.amt, kDomain, gen_seed(4));
    timed("core.augmented_metablock", spec.amt, [&] {
      fx->amt = Must(ccidx::AugmentedMetablockTree::Build(
                         pager, std::span(fx->amt_points)),
                     "augmented metablock build");
    });
  }
  MustOk(pager->Flush(), "fixture flush");
  fx->build_ios = static_cast<double>(fx->device->stats().TotalIos());
  return fx;
}

/// Stabbing points whose answer size lies in [lo_count, hi_count]: for a
/// set of closed intervals (a diagonal query over points (x, y) is a stab
/// of the intervals [x, y]). Falls back to the smallest nonempty answers
/// when no point qualifies (tiny fixtures).
inline std::vector<Coord> StabPointsWithCount(
    const std::vector<std::pair<Coord, Coord>>& ivs, size_t lo_count,
    size_t hi_count) {
  std::vector<Coord> los, his;
  for (const auto& [lo, hi] : ivs) los.push_back(lo), his.push_back(hi);
  std::sort(los.begin(), los.end());
  std::sort(his.begin(), his.end());
  auto count_at = [&](Coord q) {
    return static_cast<size_t>(
        (std::upper_bound(los.begin(), los.end(), q) - los.begin()) -
        (std::lower_bound(his.begin(), his.end(), q) - his.begin()));
  };
  std::vector<Coord> good;
  for (Coord q : los) {
    size_t c = count_at(q);
    if (c >= lo_count && c <= hi_count) good.push_back(q);
  }
  if (good.empty()) {
    for (Coord q : los) {
      if (count_at(q) <= hi_count) good.push_back(q);
    }
  }
  if (good.empty()) good.push_back(los.front());
  return good;
}

/// Seeded request generators over a fixture. Each call returns the next
/// request of the stream and the Op it exercises.
class ReadMix {
 public:
  ReadMix(const Fixture& fx, uint64_t seed) : fx_(fx), rng_(seed) {
    if (!fx.mb_points.empty()) {
      std::vector<std::pair<Coord, Coord>> ivs;
      for (const Point& p : fx.mb_points) ivs.push_back({p.x, p.y});
      diag_records_ = StabPointsWithCount(ivs, kB, 4 * kB);
      diag_wide_ = StabPointsWithCount(ivs, 6 * kB, 10 * kB);
    }
    if (!fx.intervals.empty()) {
      std::vector<std::pair<Coord, Coord>> ivs;
      for (const Interval& iv : fx.intervals) ivs.push_back({iv.lo, iv.hi});
      stab_records_ = StabPointsWithCount(ivs, kB, 4 * kB);
    }
  }

  /// serve-write's read mix: 25% each of diagonal limit-16, B+-tree
  /// 256-key range count, interval stab limit-16 and small three-sided
  /// count; every 16th request asks for records with t in [B, 4B].
  Request ServeRead(uint64_t seq, Op* op) {
    const bool records = seq % 16 == 15;
    Request req;
    switch (rng_.Next() % 4) {
      case 0:
        req.type = RequestType::kMetablockDiagonal;
        if (records) {
          req.mode = ResultMode::kRecords;
          req.args = {Pick(diag_records_), 0, 0};
          *op = Op::kDiagRecords;
        } else {
          req.mode = ResultMode::kLimit;
          req.limit = 16;
          req.args = {rng_.Uniform(0, kDomain - 1), 0, 0};
          *op = Op::kDiagLimit;
        }
        break;
      case 1: {
        const int64_t keys = records ? rng_.Uniform(kB, 4 * kB) : 256;
        const int64_t lo = 2 * rng_.Uniform(0, std::max<int64_t>(0, fx_.bt_n - keys));
        req.type = RequestType::kBtreeRange;
        req.mode = records ? ResultMode::kRecords : ResultMode::kCount;
        req.args = {lo, lo + 2 * (keys - 1), 0};
        *op = records ? Op::kRangeRecords : Op::kRangeCount;
        break;
      }
      case 2:
        req.type = RequestType::kIntervalStab;
        if (records) {
          req.mode = ResultMode::kRecords;
          req.args = {Pick(stab_records_), 0, 0};
          *op = Op::kStabRecords;
        } else {
          req.mode = ResultMode::kLimit;
          req.limit = 16;
          req.args = {rng_.Uniform(0, kDomain - 1), 0, 0};
          *op = Op::kStabLimit;
        }
        break;
      default:
        // Width D/256 holds ~n/256 points; the y cut keeps 1/16 of them
        // (count) or t in [B, 4B] (records).
        req.type = RequestType::kThreeSided;
        req.mode = records ? ResultMode::kRecords : ResultMode::kCount;
        req.args = ThreeSidedArgs(records ? rng_.Uniform(kB, 4 * kB) : 32);
        *op = records ? Op::kThreeRecords : Op::kThreeCount;
        break;
    }
    return req;
  }

  /// cold-scan: 25% each of B+-tree ~1024-key range records, diagonal
  /// records with t ~ 8B, three-sided records with t ~ 4B, and B+-tree
  /// point lookups.
  Request ColdScan(Op* op) {
    Request req;
    req.mode = ResultMode::kRecords;
    switch (rng_.Next() % 4) {
      case 0: {
        const int64_t keys = 1024;
        const int64_t lo = 2 * rng_.Uniform(0, std::max<int64_t>(0, fx_.bt_n - keys));
        req.type = RequestType::kBtreeRange;
        req.args = {lo, lo + 2 * (keys - 1), 0};
        *op = Op::kRangeRecords;
        break;
      }
      case 1:
        req.type = RequestType::kMetablockDiagonal;
        req.args = {Pick(diag_wide_), 0, 0};
        *op = Op::kDiagRecords;
        break;
      case 2:
        req.type = RequestType::kThreeSided;
        req.args = ThreeSidedArgs(4 * kB);
        *op = Op::kThreeRecords;
        break;
      default: {
        const int64_t key = 2 * rng_.Uniform(0, fx_.bt_n - 1);
        req.type = RequestType::kBtreeRange;
        req.args = {key, key, 0};
        *op = Op::kPoint;
        break;
      }
    }
    return req;
  }

  Rng& rng() { return rng_; }

 private:
  Coord Pick(const std::vector<Coord>& v) {
    return v[rng_.Next() % v.size()];
  }

  // x-slab of width D/256 and a y cut so that ~t points are expected.
  std::array<int64_t, 3> ThreeSidedArgs(int64_t t) {
    const double per_slab =
        std::max(1.0, static_cast<double>(fx_.ts_points.size()) / 256.0);
    const Coord width = kDomain / 256;
    const Coord xlo = rng_.Uniform(0, kDomain - width);
    const double keep = std::min(1.0, static_cast<double>(t) / per_slab);
    const Coord ylo = static_cast<Coord>(static_cast<double>(kDomain) * (1.0 - keep));
    return {xlo, xlo + width - 1, ylo};
  }

  const Fixture& fx_;
  Rng rng_;
  std::vector<Coord> diag_records_, diag_wide_, stab_records_;
};

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

inline std::vector<Point> ToPoints(const Response& r) {
  std::vector<Point> out;
  for (const auto& rec : r.records) {
    out.push_back({static_cast<Coord>(rec[0]), static_cast<Coord>(rec[1]), rec[2]});
  }
  return out;
}

inline std::vector<Interval> ToIntervals(const Response& r) {
  std::vector<Interval> out;
  for (const auto& rec : r.records) {
    out.push_back({static_cast<Coord>(rec[0]), static_cast<Coord>(rec[1]), rec[2]});
  }
  return out;
}

/// A limit-k answer is right when it has min(k, |full|) distinct records,
/// each from the full answer.
template <typename T, typename Less>
bool LimitMatches(std::vector<T> got, const std::vector<T>& full, size_t k,
                  Less less) {
  if (got.size() != std::min(k, full.size())) return false;
  std::sort(got.begin(), got.end(), less);
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) return false;
  for (const T& g : got) {
    if (!std::binary_search(full.begin(), full.end(), g, less)) return false;
  }
  return true;
}

/// Checks answers to the read-only requests of every workload against
/// the testutil oracles (points, intervals) and the B+-tree's generated
/// key set (2i, i, 0).
class StaticOracle {
 public:
  explicit StaticOracle(const Fixture& fx)
      : fx_(fx),
        mb_(fx.mb_points),
        ts_(fx.ts_points) {
    for (const Interval& iv : fx.intervals) iv_.Insert(iv);
  }

  bool Check(Op op, const Request& req, const Response& resp) const {
    if (resp.status != ccidx::serve::WireStatus::kOk) return false;
    const auto x_less = ccidx::PointXOrder();
    switch (op) {
      case Op::kDiagLimit:
      case Op::kDiagRecords: {
        std::vector<Point> full = mb_.Diagonal({req.args[0]});
        if (op == Op::kDiagLimit) {
          return LimitMatches(ToPoints(resp), full, req.limit, x_less);
        }
        std::vector<Point> got = ToPoints(resp);
        ccidx::SortPoints(&got);
        return got == full && resp.count == full.size();
      }
      case Op::kStabLimit:
      case Op::kStabRecords: {
        std::vector<Interval> full = iv_.Stab(req.args[0]);
        auto iv_less = [](const Interval& a, const Interval& b) {
          return std::tie(a.lo, a.hi, a.id) < std::tie(b.lo, b.hi, b.id);
        };
        if (op == Op::kStabLimit) {
          return LimitMatches(ToIntervals(resp), full, req.limit, iv_less);
        }
        std::vector<Interval> got = ToIntervals(resp);
        ccidx::SortIntervals(&got);
        return got == full && resp.count == full.size();
      }
      case Op::kThreeCount:
      case Op::kThreeRecords: {
        std::vector<Point> full =
            ts_.ThreeSided({req.args[0], req.args[1], req.args[2]});
        if (op == Op::kThreeCount) return resp.count == full.size();
        std::vector<Point> got = ToPoints(resp);
        ccidx::SortPoints(&got);
        return got == full && resp.count == full.size();
      }
      case Op::kRangeCount:
      case Op::kRangeRecords:
      case Op::kPoint: {
        std::vector<BtEntry> full = BtreeRange(req.args[0], req.args[1]);
        if (op == Op::kRangeCount) return resp.count == full.size();
        if (resp.records.size() != full.size()) return false;
        for (size_t i = 0; i < full.size(); ++i) {
          const auto& r = resp.records[i];
          if (static_cast<int64_t>(r[0]) != full[i].key || r[1] != full[i].value ||
              static_cast<int64_t>(r[2]) != full[i].aux) {
            return false;
          }
        }
        return true;
      }
      default:
        return false;
    }
  }

  /// The bulk-loaded entries with lo <= key <= hi.
  std::vector<BtEntry> BtreeRange(int64_t lo, int64_t hi) const {
    std::vector<BtEntry> out;
    const int64_t first = std::max<int64_t>(0, (lo + 1) / 2);
    const int64_t last = std::min<int64_t>(fx_.bt_n - 1, hi / 2);
    for (int64_t i = first; i <= last; ++i) {
      out.push_back({2 * i, static_cast<uint64_t>(i), 0});
    }
    return out;
  }

 private:
  const Fixture& fx_;
  ccidx::PointOracle mb_, ts_;
  ccidx::IntervalOracle iv_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
