// MetablockEngine: the Section 3.2 update machinery of the augmented
// metablock trees, written once for both query families.
//
// Lemma 4.4 makes the 3-sided metablock tree dynamic by reusing Section
// 3.2 verbatim, so one engine serves AugmentedMetablockTree (diagonal
// corner queries) and AugmentedThreeSidedTree (3-sided queries). It owns:
//   * the update block: each metablock buffers up to B inserted points in
//     one page; when full, a LEVEL I reorganization merges them into the
//     own points and rebuilds the OwnOrganization (organization.h) —
//     O(B) I/Os once per B inserts;
//   * LEVEL II: at 2B^2 own points a non-leaf keeps the B^2 highest and
//     pushes the rest into its children by x; a leaf splits in two by x;
//   * branching control: at 2B children the subtree is rebuilt as a
//     balanced static tree (the paper splits the parent and propagates
//     upward; a subtree rebuild has the same amortized cost by the
//     induction of Lemma 3.6 and is simpler — DESIGN.md §8);
//   * TD: each non-leaf keeps a side structure over the points pushed into
//     its children since its last TS reorganization, with a one-page
//     buffer (rebuilt every B pushes); queries consult it wherever they
//     consult a TS chain, so TS staleness never loses points;
//   * TS reorganization: when TD reaches B^2 points, or a child performs a
//     level II or split, every child's TS is rebuilt from its stored
//     points and TD is discarded — O(B^2) I/Os per Theta(B^2) inserts;
//   * weak deletes: a directed membership probe (Locate) down p.x's
//     routing path, tombstones filtered out of every query at zero I/O,
//     and a fault-atomic global purge rebuild before the dead reach half
//     the live weight (DESIGN.md §8);
//   * the desc_ymax / node_ymax watermarks: push-downs let a metablock's
//     own minimum y drift below points pushed into its subtree earlier,
//     which breaks the static trees' heap order, so subtree reporting
//     recurses iff some strict descendant can qualify.
//
// A family supplies only what differs, as compile-time hooks:
//   ChildEntry        its child-list record (the 3-sided one also carries
//                     sub_xhi and desc_ymax for the fork);
//   kSide             own and TD side structure: corner structure or PST;
//   kTwoSidedTs       TS over left siblings only, or over both sides plus
//                     the children-union PST (Lemma 4.3);
//   kTieFreeSplit     leaf splits and bulk partitions at half, or never
//                     through an equal-x run (3-sided routing = membership);
//   kAboveDiagonal    admission: y >= x only, or any point;
//   Tree::QueryRaw    its queries, over the protected helpers below.
//
// Thread safety (DESIGN.md §7/§11): Query is const and safe from any
// number of threads over one shared Pager. Insert/Delete/DeleteKnown/
// Destroy serialize on a per-structure write latch (reorganizations
// rewrite control pages, buffers and TS chains in place along arbitrary
// paths). Build and CheckInvariants require full quiescence.

#ifndef CCIDX_CORE_METABLOCK_ENGINE_H_
#define CCIDX_CORE_METABLOCK_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/geometry.h"
#include "ccidx/core/organization.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/dynamic/tombstones.h"
#include "ccidx/io/pager.h"

namespace ccidx {

class AugmentedMetablockTree;
class AugmentedThreeSidedTree;

/// Control record of one metablock of either augmented tree (one page).
struct AugmentedControl {
  OwnOrganization own;  // merged (organized) own points
  uint32_t update_count;  // points in update_page
  uint32_t td_update_count;
  Coord sub_xlo, sub_xhi;  // subtree x-interval
  uint64_t children_head;  // chain of the family's ChildEntry
  uint64_t ts_left_head;   // TS over left siblings, maintained by the parent
  uint64_t ts_right_head;  // TS over right siblings (two-sided TS only)
  uint64_t children_pst_root;  // children-union PST (two-sided TS only)
  uint64_t update_page;    // one page of buffered inserts (always valid)
  uint64_t td_update_page;  // one page buffering TD additions (non-leaf)
  uint64_t td_header;       // TD side structure (kInvalidPageId when empty)
  uint32_t td_count;        // points inside td_header
  uint32_t pad;
  Coord update_ymax;  // max y among buffered inserts (kCoordMin if none)
  Coord desc_ymax;    // max y among strict descendants
  Coord node_ymax;    // max(own bbox_ymax, update_ymax, desc_ymax)
};

/// Hooks of the diagonal family (AugmentedMetablockTree, Section 3.2).
struct DiagonalFamily {
  using Tree = AugmentedMetablockTree;
  using Query = DiagonalQuery;
  struct ChildEntry {
    Coord sub_xlo;
    Coord node_ymax;  // child's node_ymax at last parent write
    uint64_t control;
  };
  static ChildEntry Entry(const AugmentedControl& c, PageId id) {
    return {c.sub_xlo, c.node_ymax, id};
  }
  static constexpr SideKind kSide = SideKind::kCorner;
  static constexpr bool kTwoSidedTs = false;
  static constexpr bool kTieFreeSplit = false;
  static constexpr bool kAboveDiagonal = true;
};

/// Hooks of the 3-sided family (AugmentedThreeSidedTree, Lemma 4.4).
struct ThreeSidedFamily {
  using Tree = AugmentedThreeSidedTree;
  using Query = ThreeSidedQuery;
  struct ChildEntry {
    Coord sub_xlo;
    Coord sub_xhi;
    Coord node_ymax;  // max y anywhere in the child's subtree (watermark)
    Coord desc_ymax;  // max y strictly below the child (watermark)
    uint64_t control;
  };
  static ChildEntry Entry(const AugmentedControl& c, PageId id) {
    return {c.sub_xlo, c.sub_xhi, c.node_ymax, c.desc_ymax, id};
  }
  static constexpr SideKind kSide = SideKind::kPst;
  static constexpr bool kTwoSidedTs = true;
  static constexpr bool kTieFreeSplit = true;
  static constexpr bool kAboveDiagonal = false;
};

template <typename Family>
class MetablockEngine {
 public:
  using Tree = typename Family::Tree;
  using ChildEntry = typename Family::ChildEntry;

  /// Creates an empty tree (B >= 8, from the pager's page size).
  explicit MetablockEngine(Pager* pager);

  /// Bulk-builds a balanced tree from an x-sorted group — the one
  /// construction implementation; fault-atomic.
  static Result<Tree> Build(Pager* pager, PointGroup points);
  /// Bulk-builds from a stream in any order (external sort, then build).
  static Result<Tree> Build(Pager* pager, RecordStream<Point>* points);
  /// In-memory wrappers over the stream build.
  static Result<Tree> Build(Pager* pager, std::span<const Point> points);
  static Result<Tree> Build(Pager* pager, std::vector<Point>&& points);

  /// Inserts one point. Amortized O(log_B n + (log_B n)^2 / B) I/Os
  /// (Theorem 3.7; Lemma 4.4 adds log2 B). Re-inserting a tombstoned
  /// identity resurrects the stored point at zero I/O.
  Status Insert(const Point& p);

  /// Weak-deletes the exact point (x, y, id); sets *found. One
  /// O(log_B n) membership probe + amortized O((log_B n)/B) purge charge.
  /// The probe descends p.x's routing path, reading at each node the
  /// update page, the vertical block(s) covering p.x and the child(ren)
  /// that can hold p.x (an x tie may straddle a child boundary in the
  /// diagonal family, adding that sibling's path).
  Status Delete(const Point& p, bool* found);

  /// Weak-deletes a point the caller KNOWS is stored (a composition
  /// invariant, e.g. IntervalIndex's endpoint entry for the same
  /// interval). Skips the probe, so the deletion itself is pure memory:
  /// an error can only come from the scheduled purge, by which time the
  /// delete has landed — the fault-atomicity hook for composite indexes.
  Status DeleteKnown(const Point& p);

  /// Streams every live point inside q into `sink`; kStop halts descent.
  Status Query(const typename Family::Query& q,
               ResultSink<Point>* sink) const;
  /// Appends every live point inside q to `out`.
  Status Query(const typename Family::Query& q,
               std::vector<Point>* out) const;

  /// Frees all pages.
  Status Destroy();

  /// Structural checks: sizes, own organizations, update blocks, child
  /// order, watermarks and counts. Below every node whose TD is empty,
  /// each child's TS chain(s) must equal the top B^2 of its siblings'
  /// stored points on that side. Sets *height (when given) to the longest
  /// root-to-leaf path in nodes. O(n/B) I/Os.
  Status CheckInvariants(uint32_t* height = nullptr) const;

  /// Live points (excludes tombstoned-but-not-yet-purged points). Safe
  /// against concurrent updates (reads under the write latch).
  uint64_t size() const {
    std::lock_guard<std::mutex> lk(*write_mu_);
    return size_;
  }
  /// Weak deletes awaiting the next purge (diagnostics; always less than
  /// half the live weight by the scheduler's purge rule).
  size_t outstanding_tombstones() const { return tombstones_.size(); }
  uint32_t branching() const { return branching_; }
  uint32_t metablock_capacity() const { return branching_ * branching_; }

  /// Root control page (kInvalidPageId when empty) and owning pager —
  /// exposed so composite indexes can stage batched warm-ups of their
  /// component roots before the serial query sequence touches them.
  PageId root_page() const { return root_; }
  Pager* pager() const { return pager_; }

 protected:
  using Control = AugmentedControl;

  MetablockEngine(Pager* pager, PageId root, uint64_t size,
                  uint32_t branching)
      : pager_(pager), root_(root), size_(size), branching_(branching) {}

  Status LoadControl(PageId id, Control* c) const;
  Status ReadChildren(const Control& c, std::vector<ChildEntry>* out) const;

  // Emits the buffered and organized own points of one node inside q.
  Status ReportNode(const Control& ctrl, const ThreeSidedQuery& q,
                    SinkEmitter<Point>& em) const;
  // Full traversal of a subtree known to lie inside the query's x-range:
  // every point with y >= ylo, descending iff desc_ymax >= ylo.
  Status ReportSubtree(PageId id, Coord ylo, SinkEmitter<Point>& em) const;
  // Emits the TD structure + TD buffer hits inside q that `keep` accepts.
  // The hits are buffered first: TD is a snapshot of pushes, and only
  // the caller's routing predicate knows which of them are due here.
  Status ReportTd(const Control& ctrl, const ThreeSidedQuery& q,
                  const std::function<bool(const Point&)>& keep,
                  SinkEmitter<Point>& em) const;

  // The child slot a point routes to: the last child whose subtree
  // starts at or left of x, or child 0 when x precedes every child.
  static size_t RouteChild(const std::vector<ChildEntry>& children, Coord x);

  Pager* pager_;
  PageId root_;
  uint64_t size_;  // live points (physical count = size_ + tombstones)
  uint32_t branching_;
  PointTombstones tombstones_;
  RebuildScheduler sched_;
  // Per-structure write latch (boxed so the class stays movable):
  // serializes Insert/Delete/DeleteKnown/Destroy within a write epoch
  // (DESIGN.md §11).
  std::unique_ptr<std::mutex> write_mu_ = std::make_unique<std::mutex>();

 private:
  // Outcome of AddPoints on a child, reported to the parent.
  struct AddResult {
    ChildEntry entry;  // the child's refreshed entry (new id after rebuild)
    std::vector<ChildEntry> splits;  // leaf-split siblings, in x order
    bool structural = false;  // level II / split here: the parent must
                              // TS-reorganize its children
  };

  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;  // for the parent's TS construction
    PageId control_page;            // written once the parent attaches TS
  };

  class TsWriter;

  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching);
  // Builds a tree over x-sorted `points` and writes its root control.
  static Result<PageId> BuildRoot(Pager* pager, std::vector<Point> points,
                                  uint32_t branching);
  static Control EmptyControl();
  static Status WriteControl(Pager* pager, PageId id, const Control& c);

  Status ReadUpdatePoints(const Control& ctrl, std::vector<Point>* out) const;
  // Reads a node's stored points: organized + buffered.
  Status ReadStored(const Control& ctrl, std::vector<Point>* out) const;

  // Adds points into the node's update block, cascading level I / II.
  Result<AddResult> AddPoints(PageId id, std::vector<Point> pts);
  Status LevelOne(Control* ctrl);
  // Re-organizes the node's own points as *own (freeing the old
  // organization) and refreshes node_ymax.
  Status Reorganize(Control* ctrl, std::vector<Point>* own);
  Status LevelTwoInternal(Control* ctrl, AddResult* result);
  Status AddToTd(Control* ctrl, std::span<const Point> pts);
  Status ClearTd(Control* ctrl);
  Status TsReorganizeChildren(Control* ctrl);
  // Rebuilds the subtree at `id` as a balanced static tree, carrying its
  // TS chain(s) over; returns the new control id.
  Result<PageId> RebuildSubtree(PageId id);

  Status Locate(PageId id, const Point& p, bool* found) const;
  Status DeleteKnownLocked(const Point& p);
  Status GlobalPurgeRebuild();

  Status CollectSubtree(PageId id, std::vector<Point>* out) const;
  Status DestroySubtree(PageId id);
  // Read-only mirror of DestroySubtree: every page id of the subtree.
  Status VisitSubtreePages(PageId id, std::vector<PageId>* out) const;
  Status CheckSubtree(PageId id, Coord* node_ymax_out, uint64_t* count_out,
                      uint32_t* height_out) const;
};

extern template class MetablockEngine<DiagonalFamily>;
extern template class MetablockEngine<ThreeSidedFamily>;

}  // namespace ccidx

#endif  // CCIDX_CORE_METABLOCK_ENGINE_H_
