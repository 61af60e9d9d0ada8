// CornerStructure: Lemma 3.1 — optimal diagonal corner queries on one
// metablock's point set.
//
// A set S of k <= O(B^2) points (all with y >= x) is stored so that a
// diagonal corner query anchored at (a, a) is answered in O(1) + 2t/B I/Os:
//
//   * S is vertically blocked (sorted by x, B points per page).
//   * C = x-boundaries of the vertical blocks projected onto y = x — the
//     candidate corner positions (|C| < k/B).
//   * A subset C* of C is chosen right-to-left; for each c in C*, the exact
//     answer set S*(c) = { p : p.x <= c, p.y >= c } is explicitly stored in
//     horizontally oriented pages (sorted by descending y). The selection
//     rule — store c_i iff |Delta-| + |Delta+| > |S_i| relative to the last
//     stored corner (Fig. 12) — keeps the total explicit storage <= 2k by
//     the amortization argument of the lemma.
//
// Query at a: locate the largest c* <= a; phase 1 reads S*(c*) top-down
// until y < a (points with x <= c*); phase 2 reads the vertical blocks
// covering (c*, a] and filters. The lemma's charging argument bounds the
// phase-2 overshoot by t/B + 1 pages.
//
// Deviation from the paper (documented constant): the paper packs the
// lookup index into a single block; we store the vertical index and the C*
// index as short page chains (the augmented tree grows metablocks to 2B^2
// points, whose indexes no longer fit one page). Queries read these chains
// in full — O(1 + k/B^2) = O(1) extra I/Os.
//
// Dynamization (DESIGN.md §8): a Build-constructed handle supports
// Insert/Delete through the shared dynamization layer — one buffered
// page of pending inserts (rebuilt into the structure every B inserts,
// the paper's level-I cadence) and weak deletes (tombstones, purged by
// the RebuildScheduler before they reach half the live weight). The
// structure is bounded (k <= O(B^2)), so a rebuild costs O(k/B) = O(B)
// I/Os and updates amortize to O(1) I/Os each. Rebuilds are fault-atomic:
// the old pages are enumerated read-only, the replacement is built under
// an AllocationScope, and the old pages are freed by id afterwards.
// Handles re-attached with Open() are static views (the enclosing
// metablock trees use them that way) and must not be updated.

#ifndef CCIDX_CORE_CORNER_STRUCTURE_H_
#define CCIDX_CORE_CORNER_STRUCTURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ccidx/core/geometry.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/dynamic/tombstones.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/query/sink.h"

namespace ccidx {

/// On-disk corner structure for one metablock (Lemma 3.1).
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. Build/Free
/// have no internal latches: callers run them under full quiescence or
/// under the owning metablock tree's write latch (DESIGN.md §11).
class CornerStructure {
 public:
  /// Builds over `points` (need not be sorted; all must satisfy y >= x).
  /// Space: O(|points|/B + 1) pages. Build work is in-core.
  static Result<CornerStructure> Build(Pager* pager,
                                       std::vector<Point> points);

  /// Re-attaches to a previously built structure by its header page (a
  /// static view: no update support, size not tracked).
  static CornerStructure Open(Pager* pager, PageId header);

  /// Header page id (persist this to reopen the structure later).
  PageId header() const { return header_; }

  /// Inserts a point (y >= x) into the pending buffer; every B inserts
  /// the structure is rebuilt fault-atomically. Amortized O(1) I/Os.
  Status Insert(const Point& p);

  /// Deletes the exact point (x, y, id); sets *found. Weak delete +
  /// scheduled purge; amortized O(1) I/Os.
  Status Delete(const Point& p, bool* found);

  /// Live points (stored + pending - tombstoned); Build-constructed
  /// handles only.
  uint64_t size() const {
    return stored_count_ + pending_.size() - tombstones_.size();
  }

  /// Streams all points with x <= a and y >= a into `sink`,
  /// block-at-a-time out of the pinned pages. Cost: O(1) + 2t/B I/Os;
  /// early termination stops both phases mid-chain.
  Status Query(Coord a, ResultSink<Point>* sink) const;

  /// As above, driven by a caller-owned emitter (shared with an enclosing
  /// metablock-tree query so kStop propagates across structures).
  Status Query(Coord a, SinkEmitter<Point>& em) const;

  /// Appends all points with x <= a and y >= a to `out`.
  /// Cost: O(1) + 2t/B I/Os.
  Status Query(Coord a, std::vector<Point>* out) const;

  /// Frees every page of the structure.
  Status Free();

  /// Appends every page id of the structure to `out` (read-only mirror of
  /// Free; the fail-safe first half of a fault-atomic rebuild). Used by
  /// the enclosing trees' purge rebuilds as well.
  Status VisitPages(std::vector<PageId>* out) const;

  /// Appends every stored point to `out` (reads the vertical blocking;
  /// O(k/B) I/Os). Used when a TD structure is rebuilt (Section 3.2).
  Status CollectPoints(std::vector<Point>* out) const;

  /// The stored corners C*, as read from the header's C* index chain
  /// (descending x) — exposes the Fig. 12 selection for tests.
  Status StoredCorners(std::vector<Coord>* out) const;

  /// Total pages used (for space-bound tests); O(k/B) I/Os to compute.
  Result<uint64_t> CountPages() const;

  /// Serializes the attachable dynamized state — header page, stored
  /// count, pending buffer, tombstones — for the WAL meta registry
  /// (DESIGN.md §13).
  std::vector<uint8_t> SerializeMeta() const;

  /// Rebuilds a dynamized (updatable) handle onto WAL-recovered pages
  /// from a SerializeMeta blob.
  static Result<CornerStructure> AttachMeta(Pager* pager,
                                            std::span<const uint8_t> meta);

 private:
  CornerStructure(Pager* pager, PageId header)
      : pager_(pager), header_(header) {}

  // One vertical block: points with x in [xlo, next block's xlo).
  struct VBlockEntry {
    Coord xlo;
    Coord xhi;  // max x in the block (== the C boundary value)
    uint64_t page;
  };
  // One stored corner: explicit answer chain for the query at (x, x).
  struct CStarEntry {
    Coord x;
    uint64_t head;       // chain of answer points, descending y
    uint32_t block_idx;  // vertical block whose right boundary is x
    uint32_t reserved;
  };

  struct Header {
    uint32_t num_vblocks;
    uint32_t num_cstar;
    uint64_t vindex_head;
    uint64_t cstar_head;
  };

  Status LoadHeader(Header* h) const;
  Status LoadIndexes(std::vector<VBlockEntry>* vblocks,
                     std::vector<CStarEntry>* cstar) const;

  // Merges pending inserts, drops tombstoned points, and replaces the
  // on-device structure (fault-atomic; see file comment).
  Status Rebuild();

  Pager* pager_;
  PageId header_;
  // Dynamization overlay (DESIGN.md §8) — lives in the handle; static
  // Open() views leave it empty.
  uint64_t stored_count_ = 0;
  std::vector<Point> pending_;
  PointTombstones tombstones_;
  RebuildScheduler sched_;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_CORNER_STRUCTURE_H_
