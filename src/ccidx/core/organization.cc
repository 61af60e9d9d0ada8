#include "ccidx/core/organization.h"

#include <algorithm>

#include "ccidx/core/blocking.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/simd/filter_emit.h"

namespace ccidx {

Result<PageId> BuildSide(Pager* pager, SideKind kind,
                         std::vector<Point> points) {
  switch (kind) {
    case SideKind::kCorner: {
      auto corner = CornerStructure::Build(pager, std::move(points));
      CCIDX_RETURN_IF_ERROR(corner.status());
      return corner->header();
    }
    case SideKind::kPst: {
      auto pst = ExternalPst::Build(pager, std::move(points));
      CCIDX_RETURN_IF_ERROR(pst.status());
      return pst->root();
    }
    case SideKind::kNone:
      break;
  }
  return kInvalidPageId;
}

Status FreeSide(Pager* pager, SideKind kind, PageId root) {
  if (root == kInvalidPageId) return Status::OK();
  if (kind == SideKind::kCorner) {
    return CornerStructure::Open(pager, root).Free();
  }
  return ExternalPst::Open(pager, root).Free();
}

Status VisitSide(Pager* pager, SideKind kind, PageId root,
                 std::vector<PageId>* out) {
  if (root == kInvalidPageId) return Status::OK();
  if (kind == SideKind::kCorner) {
    return CornerStructure::Open(pager, root).VisitPages(out);
  }
  return ExternalPst::Open(pager, root).VisitPages(out);
}

Status CollectSide(Pager* pager, SideKind kind, PageId root,
                   std::vector<Point>* out) {
  if (root == kInvalidPageId) return Status::OK();
  if (kind == SideKind::kCorner) {
    return CornerStructure::Open(pager, root).CollectPoints(out);
  }
  return ExternalPst::Open(pager, root).CollectPoints(out);
}

Status QuerySide(Pager* pager, SideKind kind, PageId root,
                 const ThreeSidedQuery& q, std::vector<Point>* out) {
  if (root == kInvalidPageId) return Status::OK();
  if (kind == SideKind::kCorner) {
    CCIDX_CHECK(q.xlo == kCoordMin && q.xhi == q.ylo);
    return CornerStructure::Open(pager, root).Query(q.xhi, out);
  }
  return ExternalPst::Open(pager, root).Query(q, out);
}

Status OwnOrganization::Organize(Pager* pager, SideKind kind,
                                 std::vector<Point>* own) {
  num_points = static_cast<uint32_t>(own->size());
  bbox_xmin = bbox_ymin = kCoordMax;
  bbox_xmax = bbox_ymax = kCoordMin;
  for (const Point& p : *own) {
    bbox_xmin = std::min(bbox_xmin, p.x);
    bbox_xmax = std::max(bbox_xmax, p.x);
    bbox_ymin = std::min(bbox_ymin, p.y);
    bbox_ymax = std::max(bbox_ymax, p.y);
  }
  std::sort(own->begin(), own->end(), PointXOrder());
  auto vb = WriteVerticalBlocking(pager, *own);
  CCIDX_RETURN_IF_ERROR(vb.status());
  vindex_head = vb->index_head;
  auto horiz = WriteDescYChain(pager, *own);
  CCIDX_RETURN_IF_ERROR(horiz.status());
  horiz_head = *horiz;
  // Empty sets never get a corner: their bbox is inverted.
  const bool wants_side = kind == SideKind::kPst ||
                          (kind == SideKind::kCorner && bbox_ymin <= bbox_xmax);
  side = kInvalidPageId;
  if (wants_side) {
    auto root = BuildSide(pager, kind, *own);
    CCIDX_RETURN_IF_ERROR(root.status());
    side = *root;
  }
  return Status::OK();
}

Status OwnOrganization::Free(Pager* pager, SideKind kind) {
  CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager, vindex_head));
  if (horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(PageIo(pager).FreeChain(horiz_head));
  }
  CCIDX_RETURN_IF_ERROR(FreeSide(pager, kind, side));
  vindex_head = horiz_head = side = kInvalidPageId;
  return Status::OK();
}

Status OwnOrganization::Visit(Pager* pager, SideKind kind,
                              std::vector<PageId>* out) const {
  CCIDX_RETURN_IF_ERROR(VisitVerticalBlocking(pager, vindex_head, out));
  if (horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(PageIo(pager).VisitChain(horiz_head, out));
  }
  return VisitSide(pager, kind, side, out);
}

Status OwnOrganization::Check(Pager* pager, SideKind kind,
                              std::vector<Point>* own) const {
  PageIo io(pager);
  own->clear();
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(horiz_head, own));
  if (own->size() != num_points) {
    return Status::Corruption("own point count mismatch");
  }
  if (!std::is_sorted(own->begin(), own->end(),
                      [](const Point& a, const Point& b) {
                        return PointYOrder()(b, a);
                      })) {
    return Status::Corruption("horizontal chain not descending by y");
  }
  Coord x0 = kCoordMax, x1 = kCoordMin, y0 = kCoordMax, y1 = kCoordMin;
  for (const Point& p : *own) {
    x0 = std::min(x0, p.x);
    x1 = std::max(x1, p.x);
    y0 = std::min(y0, p.y);
    y1 = std::max(y1, p.y);
  }
  if (!own->empty() && (x0 != bbox_xmin || x1 != bbox_xmax ||
                        y0 != bbox_ymin || y1 != bbox_ymax)) {
    return Status::Corruption("bbox mismatch");
  }
  // The vertical blocking must hold the same multiset, ascending by x.
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, vindex_head, &index));
  std::vector<Point> vpoints;
  for (const VerticalBlock& blk : index) {
    auto view = io.ViewRecords<Point>(blk.page);
    CCIDX_RETURN_IF_ERROR(view.status());
    for (const Point& p : view->records) {
      if (p.x < blk.xlo || p.x > blk.xhi) {
        return Status::Corruption("vertical block range mismatch");
      }
    }
    vpoints.insert(vpoints.end(), view->records.begin(), view->records.end());
  }
  if (!std::is_sorted(vpoints.begin(), vpoints.end(), PointXOrder())) {
    return Status::Corruption("vertical blocking not ascending by x");
  }
  std::vector<Point> by_x = *own;
  std::sort(by_x.begin(), by_x.end(), PointXOrder());
  if (by_x != vpoints) {
    return Status::Corruption("vertical / horizontal blockings disagree");
  }
  switch (kind) {
    case SideKind::kCorner:
      if ((num_points > 0 && bbox_ymin <= bbox_xmax) !=
          (side != kInvalidPageId)) {
        return Status::Corruption("corner structure presence mismatch");
      }
      break;
    case SideKind::kPst:
      if (side == kInvalidPageId) {
        if (num_points > 0) return Status::Corruption("missing own PST");
      } else {
        CCIDX_RETURN_IF_ERROR(ExternalPst::Open(pager, side).CheckInvariants());
      }
      break;
    case SideKind::kNone:
      if (side != kInvalidPageId) {
        return Status::Corruption("side structure present but disabled");
      }
      break;
  }
  return Status::OK();
}

Status OwnOrganization::Report(Pager* pager, SideKind kind,
                               const ThreeSidedQuery& q,
                               SinkEmitter<Point>& em) const {
  if (num_points == 0 || em.stopped()) return Status::OK();
  if (bbox_xmin > q.xhi || bbox_xmax < q.xlo || bbox_ymax < q.ylo) {
    return Status::OK();
  }
  const bool x_all = bbox_xmin >= q.xlo && bbox_xmax <= q.xhi;
  const bool y_all = bbox_ymin >= q.ylo;
  if (x_all && y_all) {
    // Type III: the whole metablock is output.
    return EmitChain<Point>(pager, horiz_head, em);
  }
  std::vector<VerticalBlock> index;
  if (y_all) {
    // Type I: only vertical sides cut; at most two blocks are partially
    // useful.
    CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, vindex_head, &index));
    return ScanVerticalBlocks(pager, index, q.xlo, q.xhi, em);
  }
  if (x_all) {
    // Type IV: only the bottom side cuts; scan down to ylo.
    return ScanDescYChain(pager, horiz_head, q.ylo, em).status();
  }
  // Type II: a corner of the query lies inside the bbox.
  if (side != kInvalidPageId) {
    if (kind == SideKind::kCorner) {
      return CornerStructure::Open(pager, side).Query(q.xhi, em);
    }
    return ExternalPst::Open(pager, side).Query(q, em);
  }
  // The side structure was ablated away: pay the fallback it saves, every
  // vertical block up to xhi, filtered.
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, vindex_head, &index));
  PageIo io(pager);
  for (const VerticalBlock& blk : index) {
    if (blk.xlo > q.xhi || em.stopped()) break;
    auto view = io.ViewRecords<Point>(blk.page);
    CCIDX_RETURN_IF_ERROR(view.status());
    simd::EmitFiltered3Sided(em, view->records, q.xlo, q.xhi, q.ylo);
  }
  return Status::OK();
}

Result<SiblingStructures> WriteSiblingStructures(
    Pager* pager, size_t k, std::span<const Point> all,
    std::span<const size_t> ends) {
  const size_t n = ends.size();
  auto run = [&](size_t i) {
    size_t begin = i == 0 ? 0 : ends[i - 1];
    return all.subspan(begin, ends[i] - begin);
  };
  SiblingStructures out;
  out.ts_left.assign(n, kInvalidPageId);
  out.ts_right.assign(n, kInvalidPageId);
  auto write = [&](const TopYSet& top, PageId* head) -> Status {
    if (top.points().empty()) return Status::OK();
    auto chain = WriteDescYChain(pager, top.points());
    CCIDX_RETURN_IF_ERROR(chain.status());
    *head = *chain;
    return Status::OK();
  };
  TopYSet left(k);
  for (size_t i = 0; i < n; ++i) {
    CCIDX_RETURN_IF_ERROR(write(left, &out.ts_left[i]));
    left.Add(run(i));
  }
  auto pst = ExternalPst::Build(pager, all);
  CCIDX_RETURN_IF_ERROR(pst.status());
  out.children_pst = pst->root();
  TopYSet right(k);
  for (size_t i = n; i-- > 0;) {
    CCIDX_RETURN_IF_ERROR(write(right, &out.ts_right[i]));
    right.Add(run(i));
  }
  return out;
}

}  // namespace ccidx
