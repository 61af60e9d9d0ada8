#include "ccidx/core/three_sided_tree.h"

#include <algorithm>

namespace ccidx {

Status ThreeSidedTree::WriteControl(Pager* pager, PageId id,
                                    const Control& c) {
  return PageIo(pager).WriteStruct(id, c);
}

Status ThreeSidedTree::LoadControl(PageId id, Control* c) const {
  return PageIo(pager_).ReadStruct(id, c);
}

Result<ThreeSidedTree::BuiltNode> ThreeSidedTree::BuildNode(
    Pager* pager, PointGroup group, uint32_t branching) {
  const uint32_t b2 = branching * branching;
  CCIDX_CHECK(!group.empty());
  PageIo io(pager);

  BuiltNode node;
  node.control_page = pager->Allocate();
  Control& ctrl = node.ctrl;
  ctrl = Control{};
  ctrl.children_head = kInvalidPageId;
  ctrl.ts_left_head = kInvalidPageId;
  ctrl.ts_right_head = kInvalidPageId;
  ctrl.children_pst_root = kInvalidPageId;
  ctrl.sub_xlo = group.first_x();
  ctrl.sub_xhi = group.last_x();

  std::vector<Point> own;
  if (group.size() <= b2) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
  } else {
    auto part = std::move(group).PartitionTopY(b2, branching);
    CCIDX_RETURN_IF_ERROR(part.status());
    own = std::move(part->top);

    // Build all children first; TS structures need both directions.
    std::vector<BuiltNode> children;
    for (PointGroup& sub : part->children) {
      auto child = BuildNode(pager, std::move(sub), branching);
      CCIDX_RETURN_IF_ERROR(child.status());
      children.push_back(std::move(*child));
    }

    // TS chains in both directions (case 5) and the union of all
    // children's points: the case-(4) structure (<= B^3 points).
    std::vector<Point> all;
    std::vector<size_t> ends;
    for (const BuiltNode& child : children) {
      all.insert(all.end(), child.own_points.begin(), child.own_points.end());
      ends.push_back(all.size());
    }
    auto sib = WriteSiblingStructures(pager, b2, all, ends);
    CCIDX_RETURN_IF_ERROR(sib.status());
    ctrl.children_pst_root = sib->children_pst;
    for (size_t i = 0; i < children.size(); ++i) {
      children[i].ctrl.ts_left_head = sib->ts_left[i];
      children[i].ctrl.ts_right_head = sib->ts_right[i];
    }

    std::vector<ChildEntry> entries;
    for (BuiltNode& child : children) {
      CCIDX_RETURN_IF_ERROR(
          WriteControl(pager, child.control_page, child.ctrl));
      entries.push_back({child.ctrl.sub_xlo, child.ctrl.sub_xhi,
                         child.ctrl.own.bbox_ymax, child.ctrl.own.bbox_ymin,
                         child.control_page});
    }
    auto ids = io.WriteChain<ChildEntry>(entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.own.num_children = static_cast<uint32_t>(entries.size());
  }

  CCIDX_RETURN_IF_ERROR(ctrl.own.Organize(pager, SideKind::kPst, &own));
  node.own_points = std::move(own);
  return node;
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             PointGroup points) {
  // The control record fits the smallest page the tree accepts (B = 4).
  static_assert(sizeof(Control) <= PageIo::kHeaderSize + 4 * sizeof(Point));
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 4 || sizeof(Control) > pager->page_size()) {
    return Status::InvalidArgument("page size too small");
  }
  if (points.empty()) {
    return ThreeSidedTree(pager, kInvalidPageId, 0, branching);
  }
  AllocationScope scope(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(WriteControl(pager, root->control_page, root->ctrl));
  scope.Commit();
  return ThreeSidedTree(pager, root->control_page, n, branching);
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             RecordStream<Point>* points) {
  AllocationScope scope(pager);
  auto group =
      SortPointStream(pager, points, /*require_above_diagonal=*/false);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group));
  CCIDX_RETURN_IF_ERROR(tree.status());
  scope.Commit();
  return tree;
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             std::span<const Point> points) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream);
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             std::vector<Point>&& points) {
  return Build(pager, std::span<const Point>(points));
}

Status ThreeSidedTree::ReportSubtree(PageId id, Coord ylo,
                                     SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  auto crossed = ScanDescYChain(pager_, ctrl.own.horiz_head, ylo, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (*crossed || ctrl.own.num_children == 0 || em.stopped()) {
    return Status::OK();
  }
  return DescendMiddle(ctrl, ylo, em);
}

Status ThreeSidedTree::DescendMiddle(const Control& ctrl, Coord ylo,
                                     SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl.children_head, &children));
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.ymax >= ylo) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, ylo, em));
    }
  }
  return Status::OK();
}

Status ThreeSidedTree::LeftPath(PageId id, Coord xlo, Coord ylo,
                                bool skip_own,
                                SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    if (!skip_own) {
      CCIDX_RETURN_IF_ERROR(
          ctrl.own.Report(pager_, SideKind::kPst, {xlo, kCoordMax, ylo}, em));
    }
    skip_own = false;
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    // First child whose subtree reaches xlo; right siblings lie fully
    // inside the slab.
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
      } else {
        for (size_t i = j + 1; i < children.size() && !em.stopped(); ++i) {
          if (children[i].ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status ThreeSidedTree::RightPath(PageId id, Coord xhi, Coord ylo,
                                 bool skip_own,
                                 SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    if (!skip_own) {
      CCIDX_RETURN_IF_ERROR(
          ctrl.own.Report(pager_, SideKind::kPst, {kCoordMin, xhi, ylo}, em));
    }
    skip_own = false;
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    // Last child whose subtree starts at or left of xhi; left siblings lie
    // fully inside the slab.
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
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status ThreeSidedTree::Query(const ThreeSidedQuery& q,
                             ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId || q.xlo > q.xhi) return Status::OK();
  PageIo io(pager_);
  SinkEmitter<Point> em(sink);
  PageId id = root_;
  while (true) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(ctrl.own.Report(pager_, SideKind::kPst, q, em));
    if (ctrl.own.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    // Slab routing (tie-safe): jl = first child reaching xlo, jr = last
    // child starting at or left of xhi.
    size_t jl = children.size(), jr = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (jl == children.size() && children[i].sub_xhi >= q.xlo) jl = i;
      if (children[i].sub_xlo <= q.xhi) jr = i;
    }
    if (jl == children.size() || jr == children.size() || jl > jr) {
      return Status::OK();  // no child subtree intersects the slab
    }
    if (jl == jr) {
      if (children[jl].ymax < q.ylo) return Status::OK();
      id = children[jl].control;
      continue;
    }
    // Fork (case 4): the children-union PST reports every child-stored
    // point in the query in one O(log2 B^3 + t/B) access.
    ExternalPst pst = ExternalPst::Open(pager_, ctrl.children_pst_root);
    CCIDX_RETURN_IF_ERROR(pst.Query(q, em));
    if (em.stopped()) return Status::OK();
    // Middle children lie fully inside the slab; their own points are
    // reported; descend only below fully-inside ones (heap order kills
    // the rest).
    for (size_t m = jl + 1; m < jr && !em.stopped(); ++m) {
      if (children[m].ymin >= q.ylo) {
        Control mc;
        CCIDX_RETURN_IF_ERROR(LoadControl(children[m].control, &mc));
        if (mc.own.num_children > 0) {
          CCIDX_RETURN_IF_ERROR(DescendMiddle(mc, q.ylo, em));
        }
      }
    }
    // Heap order: a fork child's descendants all lie at or below its own
    // minimum y, so the one-sided path is needed only when ymin >= ylo.
    if (children[jl].ymin >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          LeftPath(children[jl].control, q.xlo, q.ylo, true, em));
    }
    if (children[jr].ymin >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          RightPath(children[jr].control, q.xhi, q.ylo, true, em));
    }
    return Status::OK();
  }
}

Status ThreeSidedTree::Query(const ThreeSidedQuery& q,
                             std::vector<Point>* out) const {
  VectorSink<Point> sink(out);
  return Query(q, &sink);
}

Status ThreeSidedTree::ScanSubtree(PageId id, SinkEmitter<Point>& em) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  // Own points live exactly once in the horizontal chain; the PSTs, TS
  // chains, and vertical blockings hold copies.
  CCIDX_RETURN_IF_ERROR(EmitChain<Point>(pager_, ctrl.own.horiz_head, em));
  if (ctrl.own.num_children > 0 && !em.stopped()) {
    std::vector<ChildEntry> children;
    PageIo io(pager_);
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    for (const ChildEntry& c : children) {
      if (em.stopped()) break;
      CCIDX_RETURN_IF_ERROR(ScanSubtree(c.control, em));
    }
  }
  return Status::OK();
}

Status ThreeSidedTree::ScanAll(ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  SinkEmitter<Point> em(sink);
  return ScanSubtree(root_, em);
}

Status ThreeSidedTree::DestroySubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(ctrl.own.Free(pager_, SideKind::kPst));
  for (PageId head : {ctrl.ts_left_head, ctrl.ts_right_head}) {
    if (head != kInvalidPageId) CCIDX_RETURN_IF_ERROR(io.FreeChain(head));
  }
  CCIDX_RETURN_IF_ERROR(
      FreeSide(pager_, SideKind::kPst, ctrl.children_pst_root));
  if (ctrl.own.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(DestroySubtree(c.control));
    }
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.children_head));
  }
  return pager_->Free(id);
}

Status ThreeSidedTree::Destroy() {
  if (root_ == kInvalidPageId) return Status::OK();
  CCIDX_RETURN_IF_ERROR(DestroySubtree(root_));
  root_ = kInvalidPageId;
  size_ = 0;
  return Status::OK();
}

Status ThreeSidedTree::CheckSubtree(PageId id, Coord parent_min_y,
                                    bool is_root, uint64_t* count) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = branching_ * branching_;

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(ctrl.own.Check(pager_, SideKind::kPst, &own));
  if (ctrl.own.num_children > 0 && ctrl.own.num_points != b2) {
    return Status::Corruption("internal metablock must hold exactly B^2");
  }
  for (const Point& p : own) {
    if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
      return Status::Corruption("point outside subtree x-interval");
    }
    if (!is_root && p.y > parent_min_y) {
      return Status::Corruption("heap order violated");
    }
  }
  *count += own.size();
  if (ctrl.own.num_children == 0) return Status::OK();
  if (ctrl.children_pst_root == kInvalidPageId) {
    return Status::Corruption("missing children PST");
  }
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl.children_head, &children));
  if (children.size() != ctrl.own.num_children) {
    return Status::Corruption("children count mismatch");
  }
  // Every child's TS-left must be the top B^2 of its left siblings' own
  // points, and its TS-right the top B^2 of its right siblings'.
  TsChainChecker left(b2), right(b2);
  std::vector<Control> kids(children.size());
  std::vector<std::vector<Point>> stored(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0 && children[i].sub_xlo < children[i - 1].sub_xhi) {
      return Status::Corruption("children x-intervals out of order");
    }
    CCIDX_RETURN_IF_ERROR(
        CheckSubtree(children[i].control, ctrl.own.bbox_ymin, false, count));
    CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &kids[i]));
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<Point>(kids[i].own.horiz_head, &stored[i]));
    CCIDX_RETURN_IF_ERROR(
        left.Next(pager_, kids[i].ts_left_head, stored[i]));
  }
  for (size_t i = children.size(); i-- > 0;) {
    CCIDX_RETURN_IF_ERROR(
        right.Next(pager_, kids[i].ts_right_head, std::move(stored[i])));
  }
  return Status::OK();
}

Status ThreeSidedTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) return Status::OK();
  uint64_t count = 0;
  CCIDX_RETURN_IF_ERROR(CheckSubtree(root_, kCoordMax, true, &count));
  if (count != size_) {
    return Status::Corruption("total count mismatch");
  }
  return Status::OK();
}

}  // namespace ccidx
