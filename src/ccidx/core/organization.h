// Per-metablock organizations shared by the four metablock trees
// (MetablockTree, ThreeSidedTree and both augmented trees).
//
//   * OwnOrganization: a metablock's own points, stored twice (vertically
//     and horizontally blocked, Fig. 9) plus a side structure for queries
//     whose corner falls inside the bounding box — a Lemma 3.1 corner
//     structure in the diagonal trees, a Lemma 4.1 external PST in the
//     3-sided trees. Report is the Type I-IV case split of Theorem 3.2's
//     proof, generalized to 3-sided slabs as Lemma 4.3 prescribes.
//   * Side structures also serve as the augmented trees' TD structures
//     (Section 3.2; "3-sided" in Lemma 4.4), so they are reachable here by
//     kind.
//   * WriteSiblingStructures: the 3-sided trees' two TS chains per child
//     and the children-union PST (Lemma 4.3, cases 4 and 5).
//
// Thread safety: as blocking.h — the readers only pin pages; the writers
// run under full quiescence or the owning tree's write latch.

#ifndef CCIDX_CORE_ORGANIZATION_H_
#define CCIDX_CORE_ORGANIZATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ccidx/core/geometry.h"
#include "ccidx/io/pager.h"
#include "ccidx/query/sink.h"

namespace ccidx {

/// Which side structure backs a set of points.
enum class SideKind : uint32_t {
  kNone,    // none (MetablockTree's corner-structure ablation)
  kCorner,  // CornerStructure (Lemma 3.1): diagonal queries, y >= x
  kPst,     // ExternalPst (Lemma 4.1): 3-sided queries
};

/// Builds a side structure over `points`; returns its root page.
Result<PageId> BuildSide(Pager* pager, SideKind kind,
                         std::vector<Point> points);
/// Frees the side structure at `root` (no-op for kInvalidPageId).
Status FreeSide(Pager* pager, SideKind kind, PageId root);
/// Appends every page id of the side structure at `root` to `out`.
Status VisitSide(Pager* pager, SideKind kind, PageId root,
                 std::vector<PageId>* out);
/// Appends every stored point of the side structure at `root` to `out`.
Status CollectSide(Pager* pager, SideKind kind, PageId root,
                   std::vector<Point>* out);
/// Appends the points of the side structure at `root` inside `q` to `out`.
/// A corner structure answers diagonal queries only: q must be
/// {kCoordMin, a, a}.
Status QuerySide(Pager* pager, SideKind kind, PageId root,
                 const ThreeSidedQuery& q, std::vector<Point>* out);

/// A metablock's organized own points, embedded in its control record.
struct OwnOrganization {
  uint32_t num_points;
  // The owning metablock's child count: not part of the organization,
  // kept in this otherwise padded word so control records stay compact.
  uint32_t num_children;
  Coord bbox_xmin, bbox_xmax, bbox_ymin, bbox_ymax;
  uint64_t vindex_head;  // vertical blocking index chain
  uint64_t horiz_head;   // descending-y chain: the one primary copy
  uint64_t side;         // side structure root (kInvalidPageId if none)

  /// Writes `*own` (left sorted by x) as a fresh organization: bbox,
  /// vertical and horizontal blockings, and the side structure — a corner
  /// structure only when the diagonal crosses the bbox, a PST always.
  Status Organize(Pager* pager, SideKind kind, std::vector<Point>* own);

  /// Frees every page of the organization and empties it.
  Status Free(Pager* pager, SideKind kind);

  /// Appends every page id of the organization to `out`.
  Status Visit(Pager* pager, SideKind kind, std::vector<PageId>* out) const;

  /// Structural checks: count, descending-y chain, exact bbox, vertical
  /// blocks ascending by x within their index ranges and holding the
  /// horizontal chain's multiset, side structure presence. Sets *own to
  /// the points in descending y.
  Status Check(Pager* pager, SideKind kind, std::vector<Point>* own) const;

  /// Emits the own points inside q, classified as Type I-IV against the
  /// bbox: all inside (the horizontal chain), only vertical sides cut (the
  /// vertical blocks of the slab), only the bottom side cuts (the chain
  /// down to ylo), or a corner inside (the side structure — or, when none
  /// was built, every vertical block up to xhi, filtered). Diagonal trees
  /// pass q = {kCoordMin, a, a}.
  Status Report(Pager* pager, SideKind kind, const ThreeSidedQuery& q,
                SinkEmitter<Point>& em) const;
};

/// The 3-sided trees' sibling structures for one metablock's children,
/// whose stored points are the consecutive runs of `all` in x order (run i
/// ends at ends[i]): ts_left[i] holds the top k (descending y) of the runs
/// before i, ts_right[i] the top k of the runs after i (kInvalidPageId
/// when there are none), children_pst a PST over all of `all`.
struct SiblingStructures {
  std::vector<PageId> ts_left, ts_right;
  PageId children_pst = kInvalidPageId;
};

/// Writes SiblingStructures: TS-left chains in x order from a running top
/// k, the children PST, then TS-right chains from a reverse running top k.
Result<SiblingStructures> WriteSiblingStructures(
    Pager* pager, size_t k, std::span<const Point> all,
    std::span<const size_t> ends);

}  // namespace ccidx

#endif  // CCIDX_CORE_ORGANIZATION_H_
