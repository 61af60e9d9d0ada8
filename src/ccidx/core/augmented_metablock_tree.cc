#include "ccidx/core/augmented_metablock_tree.h"

#include "ccidx/core/blocking.h"

namespace ccidx {

Status AugmentedMetablockTree::QueryRaw(const DiagonalQuery& q,
                                        ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  const Coord a = q.a;
  const ThreeSidedQuery corner{kCoordMin, a, a};
  SinkEmitter<Point> em(sink);

  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(root_, &ctrl));
  while (true) {
    CCIDX_RETURN_IF_ERROR(ReportNode(ctrl, corner, em));
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();

    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    size_t j = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].sub_xlo <= a) j = i;
    }
    if (j == children.size()) return Status::OK();

    Control next_ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &next_ctrl));

    if (j > 0) {
      // TS hits must be buffered until the crossed/exhausted dichotomy is
      // resolved (exhausted TS hits are discarded; siblings re-report).
      std::vector<Point> ts_hits;
      auto crossed =
          CollectDescYChain(pager_, next_ctrl.ts_left_head, a, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
        // TS is a snapshot: points pushed into left siblings since the
        // last TS reorganization are found via TD(M) instead (Lemma 3.5);
        // only those routing left of j qualify.
        CCIDX_RETURN_IF_ERROR(ReportTd(
            ctrl, corner,
            [&](const Point& p) { return RouteChild(children, p.x) < j; },
            em));
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].node_ymax >= a) {
            CCIDX_RETURN_IF_ERROR(ReportSubtree(children[i].control, a, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }

    if (children[j].node_ymax < a) return Status::OK();
    ctrl = next_ctrl;
  }
}

}  // namespace ccidx
