// AugmentedThreeSidedTree: the semi-dynamic 3-sided metablock tree
// (Lemma 4.4) — the Section 3.2 insertion machinery applied to the
// Section 4 variant.
//
// Answers q = [xlo, xhi] x [ylo, +inf) in O(log_B n + log2 B + t/B) I/Os
// while supporting inserts at amortized O(log_B n + log2 B +
// (log_B n)^2 / B) I/Os, plus weak deletes (DESIGN.md §8). The lemma
// reuses Section 3.2 verbatim, and so does the code: the update machinery
// is MetablockEngine's (metablock_engine.h), shared with the diagonal
// tree. This family contributes its hooks (ThreeSidedFamily: the corner
// structures "become 3-sided structures" — an ExternalPst over each
// metablock's own points and as TD; TS over both sides plus the
// children-union PST, rebuilt at every TS reorganization; tie-free splits;
// any point admitted) and the 3-sided query below.
//
// Query-time consistency (the dynamic analogues of ThreeSidedTree's rules):
//   * the one-sided paths use the crossed/exhausted TS dichotomy with the
//     TD structure consulted on crossings (hits filtered to the sibling
//     side by deterministic x-routing), mirroring the diagonal tree;
//   * at the fork, the children-union PST and TD are stale snapshots, so
//     each child in the slab is handled EITHER by full traversal (when its
//     watermarks admit deep output, or it is a fork endpoint) OR from the
//     snapshots (filtered to its routed x-interval) — never both, which is
//     what rules out double reporting of points that have since been
//     pushed deeper;
//   * desc_ymax / node_ymax watermarks guard subtree descent as in the
//     diagonal augmented tree.

#ifndef CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_
#define CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_

#include "ccidx/core/metablock_engine.h"

namespace ccidx {

/// Dynamic 3-sided metablock tree: Lemma 4.4's native inserts plus weak
/// deletes. Bulk build, updates, Destroy and CheckInvariants are the
/// engine's; see MetablockEngine for their bounds and thread safety.
///
/// Query(ThreeSidedQuery, sink) streams every live point with
/// q.xlo <= x <= q.xhi and y >= q.ylo; kStop halts descent and every
/// subtree scan.
class AugmentedThreeSidedTree : public MetablockEngine<ThreeSidedFamily> {
 public:
  using MetablockEngine::MetablockEngine;

 private:
  friend class MetablockEngine<ThreeSidedFamily>;

  Status QueryRaw(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;
  Status LeftPath(PageId id, Coord xlo, Coord ylo,
                  SinkEmitter<Point>& em) const;
  Status RightPath(PageId id, Coord xhi, Coord ylo,
                   SinkEmitter<Point>& em) const;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_
