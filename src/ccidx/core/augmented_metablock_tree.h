// AugmentedMetablockTree: the semi-dynamic metablock tree of Section 3.2.
//
// Supports insertions at amortized O(log_B n + (log_B n)^2 / B) I/Os while
// keeping diagonal corner queries at O(log_B n + t/B) I/Os and space at
// O(n/B) pages (Theorem 3.7), plus weak deletes through the shared
// dynamization layer (DESIGN.md §8).
//
// The update machinery — update blocks, level I / II reorganizations, leaf
// splits, TD corner structures, TS reorganizations, subtree rebuilds at 2B
// children, the delete probe and the purge rebuild — is MetablockEngine's
// (metablock_engine.h), shared with the 3-sided tree of Lemma 4.4. This
// family contributes its hooks (DiagonalFamily: corner structures, TS over
// left siblings, splits at half, y >= x) and the diagonal query below.
//
// Query: the corner path of the static tree (Fig. 17), with buffered
// inserts examined at every node, the TS dichotomy supplemented by TD on
// crossings (Lemma 3.5), and subtree descent guarded by the desc_ymax /
// node_ymax watermarks instead of the static heap order (DESIGN.md §8).
// Measured query I/O is verified against the theorem's bound in
// bench_metablock_insert / tests.

#ifndef CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_
#define CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_

#include "ccidx/core/metablock_engine.h"

namespace ccidx {

/// Dynamic metablock tree: Theorem 3.7's native inserts plus weak deletes.
/// Bulk build, updates, Destroy and CheckInvariants are the engine's; see
/// MetablockEngine for their bounds and thread safety.
///
/// Query(DiagonalQuery{a}, sink) streams every live point with x <= a and
/// y >= a in O(log_B n + t/B) I/Os; kStop halts descent.
class AugmentedMetablockTree : public MetablockEngine<DiagonalFamily> {
 public:
  using MetablockEngine::MetablockEngine;

 private:
  friend class MetablockEngine<DiagonalFamily>;

  // The pre-dynamization reporting path (no tombstone filter); the
  // engine's Query wraps it when weak deletes are outstanding.
  Status QueryRaw(const DiagonalQuery& q, ResultSink<Point>* sink) const;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_
