#include "ccidx/core/metablock_tree.h"

#include <algorithm>
#include <cstddef>

#include "ccidx/simd/filter_emit.h"

namespace ccidx {

namespace {

// Upper bound on one fan-out batch staged through WarmMany: keeps a
// single subtree visit's speculative footprint (and thus the pages an
// early-stopping sink can leave unused) small and independent of the
// node's branching factor.
constexpr size_t kWarmFanoutCap = 16;

}  // namespace

Status MetablockTree::WriteControl(Pager* pager, PageId id,
                                   const Control& c) {
  return PageIo(pager).WriteStruct(id, c);
}

Status MetablockTree::LoadControl(PageId id, Control* c) const {
  return PageIo(pager_).ReadStruct(id, c);
}

Result<MetablockTree::BuiltNode> MetablockTree::BuildNode(
    Pager* pager, PointGroup group, uint32_t branching,
    const MetablockOptions& options) {
  const uint32_t b2 = branching * branching;
  CCIDX_CHECK(!group.empty());

  BuiltNode node;
  node.control_page = pager->Allocate();
  Control& ctrl = node.ctrl;
  ctrl = Control{};
  ctrl.children_head = kInvalidPageId;
  ctrl.ts_head = kInvalidPageId;
  ctrl.sub_xlo = group.first_x();
  ctrl.sub_xhi = group.last_x();

  std::vector<Point> own;
  if (group.size() <= b2) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
  } else {
    // The B^2 points with the largest y values stay here; the rest are
    // divided by x into `branching` groups, one child each (Fig. 8).
    auto part = std::move(group).PartitionTopY(b2, branching);
    CCIDX_RETURN_IF_ERROR(part.status());
    own = std::move(part->top);

    std::vector<ChildEntry> child_entries;
    TopYSet left(b2);  // top B^2 own points of the left siblings so far
    for (PointGroup& sub : part->children) {
      auto child = BuildNode(pager, std::move(sub), branching, options);
      CCIDX_RETURN_IF_ERROR(child.status());

      // TS(child) = the B^2 highest-y points stored in its left siblings.
      if (options.use_ts_structures && !left.points().empty()) {
        auto head = WriteDescYChain(pager, left.points());
        CCIDX_RETURN_IF_ERROR(head.status());
        child->ctrl.ts_head = *head;
      }
      CCIDX_RETURN_IF_ERROR(
          WriteControl(pager, child->control_page, child->ctrl));
      child_entries.push_back({child->ctrl.sub_xlo, child->ctrl.own.bbox_ymax,
                               child->control_page});
      left.Add(child->own_points);
    }
    PageIo io(pager);
    auto ids = io.WriteChain<ChildEntry>(child_entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.own.num_children = static_cast<uint32_t>(child_entries.size());
  }

  // Own-point organizations: bbox, vertical and horizontal blockings, and
  // a corner structure when the diagonal crosses the bbox.
  CCIDX_RETURN_IF_ERROR(ctrl.own.Organize(pager, Side(options), &own));
  node.own_points = std::move(own);
  return node;
}

Result<MetablockTree> MetablockTree::Build(Pager* pager, PointGroup points,
                                           const MetablockOptions& options) {
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 2) {
    return Status::InvalidArgument("page size too small for metablock tree");
  }
  if (points.empty()) {
    return MetablockTree(pager, kInvalidPageId, 0, branching, options);
  }
  AllocationScope scope(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching, options);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager, root->control_page, root->ctrl));
  scope.Commit();
  return MetablockTree(pager, root->control_page, n, branching, options);
}

Result<MetablockTree> MetablockTree::Build(Pager* pager,
                                           RecordStream<Point>* points,
                                           const MetablockOptions& options) {
  AllocationScope scope(pager);
  auto group = SortPointStream(pager, points, /*require_above_diagonal=*/true);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group), options);
  CCIDX_RETURN_IF_ERROR(tree.status());
  scope.Commit();
  return tree;
}

Result<MetablockTree> MetablockTree::Build(Pager* pager,
                                           std::span<const Point> points,
                                           const MetablockOptions& options) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream, options);
}

Result<MetablockTree> MetablockTree::Build(Pager* pager,
                                           std::vector<Point>&& points,
                                           const MetablockOptions& options) {
  return Build(pager, std::span<const Point>(points), options);
}

Status MetablockTree::ReportSubtree(PageId control_id, Coord a,
                                    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  if (ctrl.own.bbox_ymax < a && ctrl.own.num_points > 0) return Status::OK();
  // Subtree x-interval is at or left of a (caller invariant), so every
  // point here with y >= a is output. Top-down scan; if it exhausts the
  // chain (all own points inside — Type III), descendants may qualify too.
  auto crossed = ScanDescYChain(pager_, ctrl.own.horiz_head, a, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (*crossed || ctrl.own.num_children == 0 || em.stopped()) {
    return Status::OK();
  }
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                 &children));
  if (pager_->speculation_budget() > 0) {
    // Every qualifying child's control page will be read by the recursion
    // below (unless the sink stops early): one batched device round now
    // instead of a dependent read per child.
    std::vector<PageId> warm;
    for (const ChildEntry& c : children) {
      if (c.ymax >= a && warm.size() < kWarmFanoutCap) {
        warm.push_back(c.control);
      }
    }
    if (warm.size() >= 2) pager_->WarmMany(warm);
  }
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.ymax >= a) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, a, em));
    }
  }
  return Status::OK();
}

Status MetablockTree::Query(const DiagonalQuery& q,
                            ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  const Coord a = q.a;
  PageIo io(pager_);
  SinkEmitter<Point> em(sink);

  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(root_, &ctrl));
  while (true) {
    CCIDX_RETURN_IF_ERROR(
        ctrl.own.Report(pager_, Side(options_), {kCoordMin, a, a}, em));
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();

    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    // Corner path: the last child whose subtree starts at or left of a —
    // children ascend by sub_xlo, so that is the upper bound minus one
    // (found by the dispatched branchless search).
    size_t ub = simd::UpperBoundI64(
        simd::Kernels(),
        simd::FieldBase(children.data(), offsetof(ChildEntry, sub_xlo)),
        sizeof(ChildEntry), children.size(), a);
    if (ub == 0) return Status::OK();  // all children right of a
    size_t j = ub - 1;

    Control next_ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &next_ctrl));

    if (pager_->speculation_budget() > 0) {
      // Speculative descent (DESIGN.md §10): the pages the rest of this
      // round touches first — the TS chain head for the sibling dichotomy,
      // then the child's own-point chains and children index — are all
      // known now. Stage them as one device batch instead of a dependent
      // read each; whichever the query type skips is bounded overshoot.
      std::vector<PageId> warm;
      auto stage = [&](PageId id) {
        if (id != kInvalidPageId &&
            warm.size() < pager_->speculation_budget()) {
          warm.push_back(id);
        }
      };
      if (j > 0) stage(next_ctrl.ts_head);
      stage(next_ctrl.own.horiz_head);
      stage(next_ctrl.own.vindex_head);
      stage(next_ctrl.children_head);
      if (warm.size() >= 2) pager_->WarmMany(warm);
    }

    if (j > 0) {
      // Left siblings of the corner-path child, via TS (Fig. 17): read
      // TS(c_j) top-down. If the scan crosses y = a, TS contained every
      // qualifying sibling point and no sibling subtree can qualify. If it
      // is exhausted, the siblings hold >= B^2 output (or TS held all
      // sibling points), and we can afford to visit each one. The hits
      // must be buffered until the dichotomy is resolved (exhausted TS
      // hits are discarded — siblings re-report them).
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, next_ctrl.ts_head, a, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].ymax >= a) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, a, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }

    if (children[j].ymax < a) return Status::OK();  // subtree below query
    ctrl = next_ctrl;
  }
}

Status MetablockTree::Query(const DiagonalQuery& q, std::vector<Point>* out)
    const {
  VectorSink<Point> sink(out);
  return Query(q, &sink);
}

Status MetablockTree::ScanSubtree(PageId control_id,
                                  SinkEmitter<Point>& em) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  // Own points live exactly once in the horizontal chain (vertical
  // blockings, TS chains, and corner structures hold copies).
  CCIDX_RETURN_IF_ERROR(EmitChain<Point>(pager_, ctrl.own.horiz_head, em));
  if (ctrl.children_head != kInvalidPageId && !em.stopped()) {
    std::vector<ChildEntry> children;
    PageIo io(pager_);
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    if (pager_->speculation_budget() > 0 && children.size() >= 2) {
      std::vector<PageId> warm;
      for (const ChildEntry& c : children) {
        if (warm.size() >= kWarmFanoutCap) break;
        warm.push_back(c.control);
      }
      pager_->WarmMany(warm);
    }
    for (const ChildEntry& c : children) {
      if (em.stopped()) break;
      CCIDX_RETURN_IF_ERROR(ScanSubtree(c.control, em));
    }
  }
  return Status::OK();
}

Status MetablockTree::ScanAll(ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  SinkEmitter<Point> em(sink);
  return ScanSubtree(root_, em);
}

Status MetablockTree::DestroySubtree(PageId control_id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(ctrl.own.Free(pager_, Side(options_)));
  if (ctrl.ts_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.ts_head));
  }
  if (ctrl.children_head != kInvalidPageId) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(DestroySubtree(c.control));
    }
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.children_head));
  }
  return pager_->Free(control_id);
}

Status MetablockTree::Destroy() {
  if (root_ == kInvalidPageId) return Status::OK();
  CCIDX_RETURN_IF_ERROR(DestroySubtree(root_));
  root_ = kInvalidPageId;
  size_ = 0;
  return Status::OK();
}

Status MetablockTree::CheckSubtree(PageId control_id, Coord parent_min_y,
                                   bool is_root) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  PageIo io(pager_);

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(ctrl.own.Check(pager_, Side(options_), &own));
  const uint32_t b2 = branching_ * branching_;
  if (ctrl.own.num_children > 0 && ctrl.own.num_points != b2) {
    return Status::Corruption("internal metablock must hold exactly B^2");
  }
  if (ctrl.own.num_points > 2 * b2) {
    return Status::Corruption("metablock exceeds capacity");
  }
  for (const Point& p : own) {
    if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
      return Status::Corruption("point outside subtree x-interval");
    }
    if (!is_root && p.y > parent_min_y) {
      return Status::Corruption("descendant above parent metablock");
    }
  }

  if (ctrl.own.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    if (children.size() != ctrl.own.num_children) {
      return Status::Corruption("children count mismatch");
    }
    TsChainChecker ts(b2);
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0 && children[i].sub_xlo < children[i - 1].sub_xlo) {
        return Status::Corruption("children not ordered by x");
      }
      CCIDX_RETURN_IF_ERROR(
          CheckSubtree(children[i].control, ctrl.own.bbox_ymin, false));
      if (options_.use_ts_structures) {
        Control child;
        CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &child));
        std::vector<Point> stored;
        CCIDX_RETURN_IF_ERROR(
            io.ReadChain<Point>(child.own.horiz_head, &stored));
        CCIDX_RETURN_IF_ERROR(
            ts.Next(pager_, child.ts_head, std::move(stored)));
      }
    }
  }
  return Status::OK();
}

Status MetablockTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) return Status::OK();
  return CheckSubtree(root_, kCoordMax, true);
}

}  // namespace ccidx
