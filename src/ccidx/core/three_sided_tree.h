// ThreeSidedTree: the metablock-tree variant for 3-sided queries
// (Section 4, Lemma 4.3).
//
// Adapts the metablock tree to answer q = [xlo, xhi] x [ylo, +inf) in
// O(log_B n + log2 B + t/B) I/Os on arbitrary planar points (no y >= x
// restriction — class indexing maps objects to (attribute, class-label)
// points). The five complications of 3-sided queries (Fig. 20) are handled
// exactly as the lemma prescribes:
//   (1,2) corners need not lie on the diagonal / both corners in one
//         metablock  -> each metablock stores a Lemma 4.1 structure
//         (ExternalPst) over its own points; corner structures are
//         dispensed with,
//   (3)   both vertical sides through one metablock -> the vertical
//         blocking reports the x-slab directly,
//   (4)   the two vertical sides on sibling metablocks -> every interior
//         metablock M stores a 3-sided structure over the union of its
//         children's points (O(B^3) of them) that is queried once,
//   (5)   TS structures must serve both directions -> every child carries
//         two TS structures, one over left siblings and one over right.
//
// The query walks a single "slab path" while both vertical sides route to
// the same child, then forks into a left path (right side unbounded within
// the subtree, fenced by TS-right) and a right path (fenced by TS-left).
// The own-point PSTs hold <= B^2 points and the children structures
// <= B^3, so each of the at most three PST accesses costs O(log2 B + t/B)
// — the additive log2 B of the lemma.
//
// This structure is static; the paper's dynamization (Lemma 4.4) reuses
// the Section 3.2 machinery verbatim (update blocks, TD structures now
// 3-sided, level I/II reorganizations) — see DESIGN.md for scope notes.

#ifndef CCIDX_CORE_THREE_SIDED_TREE_H_
#define CCIDX_CORE_THREE_SIDED_TREE_H_

#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/blocking.h"
#include "ccidx/core/geometry.h"
#include "ccidx/core/organization.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {

/// Static metablock tree answering 3-sided queries (Lemma 4.3).
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. The
/// structure is static — Build/Destroy are its only writes and require
/// full quiescence (no internal latches to rely on within a write epoch).
class ThreeSidedTree {
 public:
  /// Builds from an x-sorted group of arbitrary planar points — the one
  /// construction implementation (fault-atomic).
  static Result<ThreeSidedTree> Build(Pager* pager, PointGroup points);

  /// Builds from a stream in any order (external sort, then build).
  static Result<ThreeSidedTree> Build(Pager* pager,
                                      RecordStream<Point>* points);

  /// In-memory wrappers over the stream build.
  static Result<ThreeSidedTree> Build(Pager* pager,
                                      std::span<const Point> points);
  static Result<ThreeSidedTree> Build(Pager* pager,
                                      std::vector<Point>&& points);

  /// Streams all points with q.xlo <= x <= q.xhi and y >= q.ylo into
  /// `sink`; kStop halts the slab walk, both one-sided paths, and every
  /// subtree scan. O(log_B n + log2 B + t/B) I/Os.
  Status Query(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;

  /// Appends all points with q.xlo <= x <= q.xhi and y >= q.ylo to `out`.
  /// O(log_B n + log2 B + t/B) I/Os.
  Status Query(const ThreeSidedQuery& q, std::vector<Point>* out) const;

  uint64_t size() const { return size_; }
  uint32_t branching() const { return branching_; }

  /// Streams every stored point into `sink`, in no particular order (each
  /// metablock's horizontal chain, top-down; PSTs, TS chains and vertical
  /// blockings hold copies). O(n/B) I/Os. The merge source of the
  /// dynamization layer's DynamicThreeSidedTree adapter (DESIGN.md §8).
  Status ScanAll(ResultSink<Point>* sink) const;

  /// Frees all pages.
  Status Destroy();

  /// Structural checks: heap order, own organizations, both TS chains of
  /// every child (the top B^2 of its siblings on that side), PST presence.
  Status CheckInvariants() const;

 private:
  struct Control {
    OwnOrganization own;     // side structure: Lemma 4.1 PST
    Coord sub_xlo, sub_xhi;
    uint64_t children_head;
    uint64_t ts_left_head;   // top B^2 of LEFT siblings (right path fence)
    uint64_t ts_right_head;  // top B^2 of RIGHT siblings (left path fence)
    uint64_t children_pst_root;  // over union of children's own points
  };

  struct ChildEntry {
    Coord sub_xlo;
    Coord sub_xhi;
    Coord ymax;  // max y of the child metablock's own points
    Coord ymin;  // min y of the child metablock's own points
    uint64_t control;
  };

  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;
    PageId control_page;
  };

  ThreeSidedTree(Pager* pager, PageId root, uint64_t size, uint32_t branching)
      : pager_(pager), root_(root), size_(size), branching_(branching) {}

  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching);
  static Status WriteControl(Pager* pager, PageId id, const Control& c);
  Status LoadControl(PageId id, Control* c) const;

  // Subtree known to lie fully inside the x-slab: descending-y scans with
  // the heap-order stop rule (as in the static metablock tree).
  Status ReportSubtree(PageId id, Coord ylo, SinkEmitter<Point>& em) const;

  // Children of a fully-inside metablock whose own points were already
  // reported by a children-PST: recurse into qualifying children only.
  Status DescendMiddle(const Control& ctrl, Coord ylo,
                       SinkEmitter<Point>& em) const;

  // One-sided paths after the fork. skip_own: the first node's own points
  // were already reported by the parent's children PST.
  Status LeftPath(PageId id, Coord xlo, Coord ylo, bool skip_own,
                  SinkEmitter<Point>& em) const;
  Status RightPath(PageId id, Coord xhi, Coord ylo, bool skip_own,
                   SinkEmitter<Point>& em) const;

  Status ScanSubtree(PageId id, SinkEmitter<Point>& em) const;
  Status DestroySubtree(PageId id);
  Status CheckSubtree(PageId id, Coord parent_min_y, bool is_root,
                      uint64_t* count) const;

  Pager* pager_;
  PageId root_;
  uint64_t size_;
  uint32_t branching_;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_THREE_SIDED_TREE_H_
