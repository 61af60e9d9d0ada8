#include "ccidx/core/augmented_three_sided_tree.h"

#include "ccidx/core/blocking.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {

Status AugmentedThreeSidedTree::LeftPath(PageId id, Coord xlo, Coord ylo,
                                         SinkEmitter<Point>& em) const {
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(ReportNode(ctrl, {xlo, kCoordMax, ylo}, em));
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    size_t j = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].sub_xhi >= xlo) {
        j = i;
        break;
      }
    }
    if (j == children.size()) return Status::OK();
    if (j + 1 < children.size()) {
      Control jc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &jc));
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, jc.ts_right_head, ylo, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
        // TD(M) supplements the snapshot for pushes since the last TS
        // reorganization, restricted to the right-sibling x range.
        CCIDX_RETURN_IF_ERROR(ReportTd(
            ctrl, {children[j + 1].sub_xlo, kCoordMax, ylo},
            [&](const Point& p) { return RouteChild(children, p.x) > j; },
            em));
      } else {
        for (size_t i = j + 1; i < children.size() && !em.stopped(); ++i) {
          if (children[i].node_ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].node_ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status AugmentedThreeSidedTree::RightPath(PageId id, Coord xhi, Coord ylo,
                                          SinkEmitter<Point>& em) const {
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(ReportNode(ctrl, {kCoordMin, xhi, ylo}, em));
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    size_t j = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].sub_xlo <= xhi) j = i;
    }
    if (j == children.size()) return Status::OK();
    if (j > 0) {
      Control jc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &jc));
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, jc.ts_left_head, ylo, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
        CCIDX_RETURN_IF_ERROR(ReportTd(
            ctrl, {kCoordMin, children[j].sub_xlo - 1, ylo},
            [&](const Point& p) { return RouteChild(children, p.x) < j; },
            em));
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].node_ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].node_ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status AugmentedThreeSidedTree::QueryRaw(const ThreeSidedQuery& q,
                                         ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId || q.xlo > q.xhi) return Status::OK();
  SinkEmitter<Point> em(sink);
  PageId id = root_;
  while (true) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(ReportNode(ctrl, q, em));
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    size_t jl = children.size(), jr = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (jl == children.size() && children[i].sub_xhi >= q.xlo) jl = i;
      if (children[i].sub_xlo <= q.xhi) jr = i;
    }
    if (jl == children.size() || jr == children.size() || jl > jr) {
      return Status::OK();
    }
    if (jl == jr) {
      if (children[jl].node_ymax < q.ylo) return Status::OK();
      id = children[jl].control;
      continue;
    }
    // Fork. Per-child dichotomy: traversal or snapshot, never both.
    // Fork endpoints are always traversed (their x clipping needs the
    // path machinery); a middle child is traversed when its watermarks
    // admit output below it, otherwise served from the snapshots.
    std::vector<bool> use_snapshot(children.size(), false);
    for (size_t m = jl + 1; m < jr; ++m) {
      if (children[m].node_ymax < q.ylo) continue;  // nothing anywhere
      if (children[m].desc_ymax >= q.ylo) {
        if (em.stopped()) return Status::OK();
        CCIDX_RETURN_IF_ERROR(ReportSubtree(children[m].control, q.ylo,
                                            em));
      } else {
        use_snapshot[m] = true;
      }
    }
    bool any_snapshot = false;
    for (bool b : use_snapshot) any_snapshot |= b;
    if (any_snapshot && !em.stopped()) {
      auto keep = [&](const Point& p) {
        return use_snapshot[RouteChild(children, p.x)];
      };
      if (ctrl.children_pst_root != kInvalidPageId) {
        ExternalPst pst =
            ExternalPst::Open(pager_, ctrl.children_pst_root);
        // Routed through the keep predicate before reaching the sink; the
        // PST's own early termination still applies underneath.
        FunctionSink<Point> routed([&](std::span<const Point> batch) {
          em.EmitFiltered(batch, keep);
          return em.stopped() ? SinkState::kStop : SinkState::kContinue;
        });
        SinkEmitter<Point> routed_em(&routed);
        CCIDX_RETURN_IF_ERROR(pst.Query(q, routed_em));
      }
      CCIDX_RETURN_IF_ERROR(ReportTd(ctrl, q, keep, em));
    }
    if (children[jl].node_ymax >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          LeftPath(children[jl].control, q.xlo, q.ylo, em));
    }
    if (children[jr].node_ymax >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          RightPath(children[jr].control, q.xhi, q.ylo, em));
    }
    return Status::OK();
  }
}

}  // namespace ccidx
