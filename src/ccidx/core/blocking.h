// Shared on-disk blocking helpers for metablock-tree variants (Fig. 9).
//
// Two physical organizations recur throughout Section 3:
//   * vertically oriented blocking — points sorted by x, B per page, with a
//     per-block (xlo, xhi, page) index chain, used to report "everything
//     left of a vertical line" with at most one partially-useful page;
//   * horizontally oriented blocking — points sorted by descending y in a
//     page chain, used to scan "from the top down" and stop within one page
//     of crossing a horizontal boundary.
//
// Thread safety (DESIGN.md §7/§11): the scan helpers only Pin pages and
// keep all state on the stack, so they are safe from any number of
// threads concurrently. The writer-side builders mutate chains in place
// with no internal latches: callers run them under full quiescence or
// under the owning structure's write latch (every dynamic family that
// rewrites blockings holds one — DESIGN.md §11).

#ifndef CCIDX_CORE_BLOCKING_H_
#define CCIDX_CORE_BLOCKING_H_

#include <algorithm>
#include <functional>
#include <iterator>
#include <vector>

#include "ccidx/core/geometry.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/query/sink.h"
#include "ccidx/simd/filter_emit.h"

namespace ccidx {

/// Index entry for one vertical block: its points span [xlo, xhi].
struct VerticalBlock {
  Coord xlo;
  Coord xhi;
  uint64_t page;
};

/// Result of writing a vertical blocking.
struct VerticalBlocking {
  PageId index_head = kInvalidPageId;  // chain of VerticalBlock entries
  uint32_t num_blocks = 0;
};

/// Writes `points` (sorted ascending by PointXOrder on entry) as a vertical
/// blocking. Returns the index-chain head.
inline Result<VerticalBlocking> WriteVerticalBlocking(
    Pager* pager, std::span<const Point> sorted_by_x) {
  PageIo io(pager);
  const uint32_t cap = io.CapacityFor(sizeof(Point));
  std::vector<VerticalBlock> index;
  for (size_t i = 0; i < sorted_by_x.size(); i += cap) {
    size_t end = std::min(sorted_by_x.size(), i + cap);
    PageId id = pager->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(
        id, sorted_by_x.subspan(i, end - i)));
    index.push_back({sorted_by_x[i].x, sorted_by_x[end - 1].x, id});
  }
  auto ids = io.WriteChain<VerticalBlock>(index);
  CCIDX_RETURN_IF_ERROR(ids.status());
  VerticalBlocking out;
  out.index_head = ids->empty() ? kInvalidPageId : ids->front();
  out.num_blocks = static_cast<uint32_t>(index.size());
  return out;
}

/// Reads the whole vertical-block index chain.
inline Status ReadVerticalIndex(Pager* pager, PageId index_head,
                                std::vector<VerticalBlock>* out) {
  PageIo io(pager);
  return io.ReadChain<VerticalBlock>(index_head, out);
}

/// Frees a vertical blocking: all data pages, then the index chain.
inline Status FreeVerticalBlocking(Pager* pager, PageId index_head) {
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, index_head, &index));
  for (const VerticalBlock& b : index) {
    CCIDX_RETURN_IF_ERROR(pager->Free(b.page));
  }
  PageIo io(pager);
  if (index_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(index_head));
  }
  return Status::OK();
}

/// Appends every page id of a vertical blocking (data pages + index
/// chain) to `out` without freeing — the read-only half of
/// FreeVerticalBlocking, used by fault-atomic rebuilds (see
/// PageIo::VisitChain).
inline Status VisitVerticalBlocking(Pager* pager, PageId index_head,
                                    std::vector<PageId>* out) {
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, index_head, &index));
  for (const VerticalBlock& b : index) {
    out->push_back(b.page);
  }
  PageIo io(pager);
  if (index_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(index_head, out));
  }
  return Status::OK();
}

/// Sorts `points` by descending y and writes them as a page chain.
/// Returns the chain head (kInvalidPageId for empty input).
inline Result<PageId> WriteDescYChain(Pager* pager,
                                      std::vector<Point> points) {
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return PointYOrder()(b, a); });
  PageIo io(pager);
  auto ids = io.WriteChain<Point>(points);
  CCIDX_RETURN_IF_ERROR(ids.status());
  return ids->empty() ? kInvalidPageId : ids->front();
}

/// The k highest points (descending PointYOrder) of a growing union: TS
/// of Fig. 10 over the left siblings added so far. Each Add costs
/// O(k + |pts|) (one nth_element), so building the TS chains of f
/// children costs O(f * (k + child size)) rather than a sort of the whole
/// union per child. Ties are broken by the total order, so the set is the
/// one a full sort followed by truncation would keep.
class TopYSet {
 public:
  explicit TopYSet(size_t k) : k_(k) {}

  void Add(std::span<const Point> pts) {
    top_.insert(top_.end(), pts.begin(), pts.end());
    if (top_.size() > k_) {
      std::nth_element(
          top_.begin(), top_.begin() + static_cast<std::ptrdiff_t>(k_),
          top_.end(),
          [](const Point& a, const Point& b) { return PointYOrder()(b, a); });
      top_.resize(k_);
    }
  }

  /// The current top set, unordered (WriteDescYChain sorts its copy).
  const std::vector<Point>& points() const { return top_; }

 private:
  size_t k_;
  std::vector<Point> top_;
};

/// CheckInvariants helper for TS chains: walks a parent's children in x
/// order (or in reverse, for TS over right siblings) and checks each
/// child's TS chain against the top k (descending PointYOrder) of the
/// points stored in the siblings walked before it. It keeps that top k by
/// sorted merge, an algorithm independent of TopYSet's.
class TsChainChecker {
 public:
  explicit TsChainChecker(size_t k) : k_(k) {}

  /// Checks the next child's TS chain, then adds the child's stored points
  /// to the union of the siblings walked so far.
  Status Next(Pager* pager, PageId ts_head, std::vector<Point> stored) {
    const auto desc_y = [](const Point& a, const Point& b) {
      return PointYOrder()(b, a);
    };
    std::vector<Point> ts;
    CCIDX_RETURN_IF_ERROR(PageIo(pager).ReadChain<Point>(ts_head, &ts));
    if (ts != top_) {
      return Status::Corruption(
          "TS chain is not the top B^2 of its siblings on that side");
    }
    std::sort(stored.begin(), stored.end(), desc_y);
    std::vector<Point> merged;
    std::merge(top_.begin(), top_.end(), stored.begin(), stored.end(),
               std::back_inserter(merged), desc_y);
    if (merged.size() > k_) merged.resize(k_);
    top_ = std::move(merged);
    return Status::OK();
  }

 private:
  size_t k_;
  std::vector<Point> top_;  // descending
};

/// Scans a descending-y chain from the top, emitting — one page at a time
/// — the prefix of each page with y >= ylo as a zero-copy span into the
/// pinned frame, and stops after the first page containing a point with
/// y < ylo (the "one block of overshoot" the proofs charge for) or as
/// soon as the sink requests termination (no further page is pinned).
/// Returns true iff the scan crossed below ylo (false = chain exhausted,
/// i.e. every stored point has y >= ylo). When the sink stopped the scan
/// early the verdict is not meaningful; callers short-circuit on
/// em.stopped() first.
inline Result<bool> ScanDescYChain(Pager* pager, PageId head, Coord ylo,
                                   SinkEmitter<Point>& em) {
  PageIo io(pager);
  const simd::KernelTable& k = simd::Kernels();
  PageId id = head;
  while (id != kInvalidPageId && !em.stopped()) {
    auto view = io.ViewRecords<Point>(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    // Descending y: the qualifying points are exactly a prefix, found by
    // the dispatched partition-point scan.
    size_t n = simd::PrefixYAtLeast(k, view->records, ylo);
    if (n == view->records.size() && view->next != kInvalidPageId) {
      // The whole page qualifies, so the scan continues into the next
      // page (unless the sink stops it): stage that read now so the
      // device latency overlaps the emit below.
      pager->Prefetch({&view->next, 1});
    }
    em.Emit(view->records.first(n));
    if (n < view->records.size()) return true;
    id = view->next;
  }
  return false;
}

/// Collecting wrapper over ScanDescYChain: appends the qualifying prefix
/// to `out` (used where the hits must be buffered before the
/// crossed/exhausted dichotomy is resolved, e.g. TS scans). Never stops
/// early, so the crossed verdict is always sound.
inline Result<bool> CollectDescYChain(Pager* pager, PageId head, Coord ylo,
                                      std::vector<Point>* out) {
  VectorSink<Point> sink(out);
  SinkEmitter<Point> em(&sink);
  return ScanDescYChain(pager, head, ylo, em);
}

/// Scans a vertical blocking across the x-slab [xlo, xhi], emitting each
/// page's qualifying run (contiguous — pages and their points ascend by
/// x) until the slab ends or the sink stops. At most two pages are
/// partially useful.
inline Status ScanVerticalBlocks(Pager* pager,
                                 const std::vector<VerticalBlock>& index,
                                 Coord xlo, Coord xhi,
                                 SinkEmitter<Point>& em) {
  PageIo io(pager);
  const simd::KernelTable& k = simd::Kernels();
  for (size_t bi = 0; bi < index.size(); ++bi) {
    const VerticalBlock& blk = index[bi];
    if (blk.xhi < xlo) continue;
    if (blk.xlo > xhi || em.stopped()) break;
    if (bi + 1 < index.size() && index[bi + 1].xlo <= xhi &&
        index[bi + 1].xhi >= xlo) {
      // The next block also intersects the slab: overlap its read with
      // this block's filter + emit.
      PageId next = index[bi + 1].page;
      pager->Prefetch({&next, 1});
    }
    auto view = io.ViewRecords<Point>(blk.page);
    CCIDX_RETURN_IF_ERROR(view.status());
    // Points ascend by x within the page: the qualifying run is the
    // contiguous window between the two partition points.
    std::span<const Point> rest =
        view->records.subspan(simd::PrefixXBelow(k, view->records, xlo));
    em.Emit(rest.first(simd::PrefixXAtMost(k, rest, xhi)));
  }
  return Status::OK();
}

/// Streams an entire [count][next][records] page chain into the sink, one
/// page-span at a time, pinning no further page once the sink stops.
template <typename Record>
inline Status EmitChain(Pager* pager, PageId head, SinkEmitter<Record>& em) {
  PageIo io(pager);
  PageId id = head;
  while (id != kInvalidPageId && !em.stopped()) {
    auto view = io.template ViewRecords<Record>(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    if (view->next != kInvalidPageId) {
      // Stage the next link while the sink consumes this page. Wasted
      // only if the sink stops on this very emit — at most one page of
      // readahead overshoot per chain, and only in cached mode.
      pager->Prefetch({&view->next, 1});
    }
    em.Emit(view->records);
    id = view->next;
  }
  return Status::OK();
}

}  // namespace ccidx

#endif  // CCIDX_CORE_BLOCKING_H_
