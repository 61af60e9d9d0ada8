#include "ccidx/core/metablock_engine.h"

#include <algorithm>

#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/blocking.h"
#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"
#include "ccidx/simd/filter_emit.h"

namespace ccidx {

namespace {

bool DescY(const Point& a, const Point& b) { return PointYOrder()(b, a); }

// Splits [0, n) near n/2 without separating an equal-x run. Returns 0 if
// impossible (all x equal).
size_t TieFreeSplit(const std::vector<Point>& sorted_by_x) {
  size_t n = sorted_by_x.size();
  size_t mid = n / 2;
  for (size_t m = mid; m < n; ++m) {
    if (sorted_by_x[m - 1].x != sorted_by_x[m].x) return m;
  }
  for (size_t m = mid; m > 0; --m) {
    if (sorted_by_x[m - 1].x != sorted_by_x[m].x) return m;
  }
  return 0;
}

}  // namespace

// Rewrites the TS chains of one metablock's children, fed in x order with
// each child's control and stored points. The one-sided shape streams: a
// child's TS over its left siblings is written (and its control with it)
// as soon as the child is seen. The two-sided shape needs every child
// before the reverse pass, so it keeps the stored points and writes the
// chains, the children PST and the controls in Finish.
template <typename Family>
class MetablockEngine<Family>::TsWriter {
 public:
  TsWriter(Pager* pager, uint32_t b2) : pager_(pager), b2_(b2), left_(b2) {}

  Status Add(PageId id, Control* child, std::span<const Point> stored) {
    PageIo io(pager_);
    for (uint64_t* head : {&child->ts_left_head, &child->ts_right_head}) {
      if (*head != kInvalidPageId) {
        CCIDX_RETURN_IF_ERROR(io.FreeChain(*head));
        *head = kInvalidPageId;
      }
    }
    if constexpr (Family::kTwoSidedTs) {
      kids_.push_back({id, *child});
      all_.insert(all_.end(), stored.begin(), stored.end());
      ends_.push_back(all_.size());
      return Status::OK();
    } else {
      if (!left_.points().empty()) {
        auto head = WriteDescYChain(pager_, left_.points());
        CCIDX_RETURN_IF_ERROR(head.status());
        child->ts_left_head = *head;
      }
      CCIDX_RETURN_IF_ERROR(WriteControl(pager_, id, *child));
      left_.Add(stored);
      return Status::OK();
    }
  }

  Status Finish(Control* parent) {
    if constexpr (Family::kTwoSidedTs) {
      CCIDX_RETURN_IF_ERROR(
          FreeSide(pager_, SideKind::kPst, parent->children_pst_root));
      auto sib = WriteSiblingStructures(pager_, b2_, all_, ends_);
      CCIDX_RETURN_IF_ERROR(sib.status());
      parent->children_pst_root = sib->children_pst;
      for (size_t i = 0; i < kids_.size(); ++i) {
        kids_[i].second.ts_left_head = sib->ts_left[i];
        kids_[i].second.ts_right_head = sib->ts_right[i];
        CCIDX_RETURN_IF_ERROR(
            WriteControl(pager_, kids_[i].first, kids_[i].second));
      }
    }
    (void)parent;
    return Status::OK();
  }

 private:
  Pager* pager_;
  uint32_t b2_;
  TopYSet left_;  // one-sided: top B^2 of the left siblings so far
  std::vector<std::pair<PageId, Control>> kids_;  // two-sided only
  std::vector<Point> all_;
  std::vector<size_t> ends_;
};

template <typename Family>
MetablockEngine<Family>::MetablockEngine(Pager* pager)
    : pager_(pager), root_(kInvalidPageId), size_(0) {
  branching_ = PageIo(pager_).CapacityFor(sizeof(Point));
  // The control record must fit one page: B >= 8 suffices.
  CCIDX_CHECK(branching_ >= 8);
  CCIDX_CHECK(sizeof(Control) <= pager_->page_size());
}

template <typename Family>
typename MetablockEngine<Family>::Control
MetablockEngine<Family>::EmptyControl() {
  Control c{};
  c.own.vindex_head = c.own.horiz_head = c.own.side = kInvalidPageId;
  c.children_head = kInvalidPageId;
  c.ts_left_head = c.ts_right_head = kInvalidPageId;
  c.children_pst_root = kInvalidPageId;
  c.update_page = c.td_update_page = c.td_header = kInvalidPageId;
  c.update_ymax = c.desc_ymax = kCoordMin;
  return c;
}

template <typename Family>
Status MetablockEngine<Family>::WriteControl(Pager* pager, PageId id,
                                             const Control& c) {
  return PageIo(pager).WriteStruct(id, c);
}

template <typename Family>
Status MetablockEngine<Family>::LoadControl(PageId id, Control* c) const {
  return PageIo(pager_).ReadStruct(id, c);
}

template <typename Family>
Status MetablockEngine<Family>::ReadChildren(
    const Control& c, std::vector<ChildEntry>* out) const {
  return PageIo(pager_).ReadChain<ChildEntry>(c.children_head, out);
}

template <typename Family>
Status MetablockEngine<Family>::ReadUpdatePoints(
    const Control& ctrl, std::vector<Point>* out) const {
  if (ctrl.update_count == 0) return Status::OK();
  return PageIo(pager_).ReadRecords<Point>(ctrl.update_page, out).status();
}

template <typename Family>
Status MetablockEngine<Family>::ReadStored(const Control& ctrl,
                                           std::vector<Point>* out) const {
  CCIDX_RETURN_IF_ERROR(
      PageIo(pager_).ReadChain<Point>(ctrl.own.horiz_head, out));
  return ReadUpdatePoints(ctrl, out);
}

template <typename Family>
size_t MetablockEngine<Family>::RouteChild(
    const std::vector<ChildEntry>& children, Coord x) {
  size_t idx = 0;
  for (size_t i = 1; i < children.size(); ++i) {
    if (children[i].sub_xlo <= x) idx = i;
  }
  return idx;
}

// ---------------------------------------------------------------------------
// Bulk build
// ---------------------------------------------------------------------------

template <typename Family>
Result<typename MetablockEngine<Family>::BuiltNode>
MetablockEngine<Family>::BuildNode(Pager* pager, PointGroup group,
                                   uint32_t branching) {
  const uint32_t b2 = branching * branching;
  CCIDX_CHECK(!group.empty());
  PageIo io(pager);

  BuiltNode node;
  node.control_page = pager->Allocate();
  Control& ctrl = node.ctrl;
  ctrl = EmptyControl();
  ctrl.sub_xlo = group.first_x();
  ctrl.sub_xhi = group.last_x();
  ctrl.update_page = pager->Allocate();
  CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, {}));

  std::vector<Point> own;
  if (group.size() <= b2) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
  } else {
    // Tie-free boundaries keep 3-sided routing equal to membership (the
    // fork's snapshot filtering depends on it).
    auto part = std::move(group).PartitionTopY(
        b2, branching,
        Family::kTieFreeSplit ? PointGroup::SplitMode::kTieFreeX
                              : PointGroup::SplitMode::kEven);
    CCIDX_RETURN_IF_ERROR(part.status());
    own = std::move(part->top);

    std::vector<ChildEntry> entries;
    TsWriter ts(pager, b2);
    for (PointGroup& sub : part->children) {
      auto child = BuildNode(pager, std::move(sub), branching);
      CCIDX_RETURN_IF_ERROR(child.status());
      entries.push_back(Family::Entry(child->ctrl, child->control_page));
      ctrl.desc_ymax = std::max(ctrl.desc_ymax, child->ctrl.node_ymax);
      CCIDX_RETURN_IF_ERROR(
          ts.Add(child->control_page, &child->ctrl, child->own_points));
    }
    CCIDX_RETURN_IF_ERROR(ts.Finish(&ctrl));
    auto ids = io.WriteChain<ChildEntry>(entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.own.num_children = static_cast<uint32_t>(entries.size());
    // Non-leaves carry a TD buffer page (initially empty).
    ctrl.td_update_page = pager->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.td_update_page, {}));
  }

  CCIDX_RETURN_IF_ERROR(ctrl.own.Organize(pager, Family::kSide, &own));
  ctrl.node_ymax = std::max(ctrl.own.bbox_ymax, ctrl.desc_ymax);
  node.own_points = std::move(own);
  return node;
}

template <typename Family>
Result<PageId> MetablockEngine<Family>::BuildRoot(Pager* pager,
                                                  std::vector<Point> points,
                                                  uint32_t branching) {
  auto built =
      BuildNode(pager, PointGroup::FromVector(std::move(points)), branching);
  CCIDX_RETURN_IF_ERROR(built.status());
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager, built->control_page, built->ctrl));
  return built->control_page;
}

template <typename Family>
Result<typename Family::Tree> MetablockEngine<Family>::Build(
    Pager* pager, PointGroup points) {
  const uint32_t branching = PageIo(pager).CapacityFor(sizeof(Point));
  if (branching < 8 || sizeof(Control) > pager->page_size()) {
    return Status::InvalidArgument(
        "page size too small for an augmented metablock tree (need B >= 8)");
  }
  if (points.empty()) return Tree(pager, kInvalidPageId, 0, branching);
  AllocationScope scope(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(WriteControl(pager, root->control_page, root->ctrl));
  scope.Commit();
  return Tree(pager, root->control_page, n, branching);
}

template <typename Family>
Result<typename Family::Tree> MetablockEngine<Family>::Build(
    Pager* pager, RecordStream<Point>* points) {
  AllocationScope scope(pager);
  auto group = SortPointStream(pager, points, Family::kAboveDiagonal);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group));
  CCIDX_RETURN_IF_ERROR(tree.status());
  scope.Commit();
  return tree;
}

template <typename Family>
Result<typename Family::Tree> MetablockEngine<Family>::Build(
    Pager* pager, std::span<const Point> points) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream);
}

template <typename Family>
Result<typename Family::Tree> MetablockEngine<Family>::Build(
    Pager* pager, std::vector<Point>&& points) {
  return Build(pager, std::span<const Point>(points));
}

// ---------------------------------------------------------------------------
// Insertion machinery (Section 3.2)
// ---------------------------------------------------------------------------

template <typename Family>
Status MetablockEngine<Family>::LevelOne(Control* ctrl) {
  PageIo io(pager_);
  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(ReadStored(*ctrl, &own));
  ctrl->update_count = 0;
  ctrl->update_ymax = kCoordMin;
  CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->update_page, {}));
  return Reorganize(ctrl, &own);
}

template <typename Family>
Status MetablockEngine<Family>::Reorganize(Control* ctrl,
                                           std::vector<Point>* own) {
  CCIDX_RETURN_IF_ERROR(ctrl->own.Free(pager_, Family::kSide));
  CCIDX_RETURN_IF_ERROR(ctrl->own.Organize(pager_, Family::kSide, own));
  ctrl->node_ymax = std::max(
      {ctrl->own.bbox_ymax, ctrl->update_ymax, ctrl->desc_ymax});
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::AddToTd(Control* ctrl,
                                        std::span<const Point> pts) {
  if (pts.empty()) return Status::OK();
  PageIo io(pager_);
  std::vector<Point> buffer;
  if (ctrl->td_update_count > 0) {
    auto next = io.ReadRecords<Point>(ctrl->td_update_page, &buffer);
    CCIDX_RETURN_IF_ERROR(next.status());
  }
  buffer.insert(buffer.end(), pts.begin(), pts.end());
  if (buffer.size() >= branching_) {
    // Rebuild the TD structure over everything (old TD + buffer).
    std::vector<Point> all;
    CCIDX_RETURN_IF_ERROR(
        CollectSide(pager_, Family::kSide, ctrl->td_header, &all));
    CCIDX_RETURN_IF_ERROR(FreeSide(pager_, Family::kSide, ctrl->td_header));
    all.insert(all.end(), buffer.begin(), buffer.end());
    ctrl->td_count = static_cast<uint32_t>(all.size());
    auto td = BuildSide(pager_, Family::kSide, std::move(all));
    CCIDX_RETURN_IF_ERROR(td.status());
    ctrl->td_header = *td;
    buffer.clear();
  }
  ctrl->td_update_count = static_cast<uint32_t>(buffer.size());
  return io.WriteRecords<Point>(ctrl->td_update_page, buffer);
}

template <typename Family>
Status MetablockEngine<Family>::ClearTd(Control* ctrl) {
  CCIDX_RETURN_IF_ERROR(FreeSide(pager_, Family::kSide, ctrl->td_header));
  ctrl->td_header = kInvalidPageId;
  ctrl->td_count = 0;
  if (ctrl->td_update_count > 0) {
    CCIDX_RETURN_IF_ERROR(
        PageIo(pager_).WriteRecords<Point>(ctrl->td_update_page, {}));
    ctrl->td_update_count = 0;
  }
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::TsReorganizeChildren(Control* ctrl) {
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(ReadChildren(*ctrl, &children));
  TsWriter ts(pager_, metablock_capacity());
  std::vector<Point> stored;
  for (const ChildEntry& c : children) {
    Control child;
    CCIDX_RETURN_IF_ERROR(LoadControl(c.control, &child));
    // TS covers points *stored in* the sibling: organized + buffered.
    stored.clear();
    CCIDX_RETURN_IF_ERROR(ReadStored(child, &stored));
    CCIDX_RETURN_IF_ERROR(ts.Add(c.control, &child, stored));
  }
  CCIDX_RETURN_IF_ERROR(ts.Finish(ctrl));
  return ClearTd(ctrl);
}

template <typename Family>
Status MetablockEngine<Family>::LevelTwoInternal(Control* ctrl,
                                                 AddResult* result) {
  const uint32_t b2 = metablock_capacity();
  PageIo io(pager_);

  // Keep the top B^2 own points; push the bottom down into the children.
  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl->own.horiz_head, &own));
  CCIDX_CHECK(own.size() >= 2 * b2);
  CCIDX_CHECK(std::is_sorted(own.begin(), own.end(), DescY));
  std::vector<Point> push(own.begin() + b2, own.end());
  own.resize(b2);
  ctrl->desc_ymax = std::max(ctrl->desc_ymax, push.front().y);
  CCIDX_RETURN_IF_ERROR(Reorganize(ctrl, &own));

  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(ReadChildren(*ctrl, &children));
  CCIDX_CHECK(!children.empty());

  // Partition the pushed points by child x-interval.
  std::vector<std::vector<Point>> batches(children.size());
  for (const Point& p : push) {
    batches[RouteChild(children, p.x)].push_back(p);
  }

  bool structural = false;
  // New siblings created by leaf splits, to splice in after their origin.
  std::vector<std::pair<size_t, ChildEntry>> new_entries;
  for (size_t i = 0; i < children.size(); ++i) {
    if (batches[i].empty()) continue;
    auto r = AddPoints(children[i].control, std::move(batches[i]));
    CCIDX_RETURN_IF_ERROR(r.status());
    children[i] = r->entry;
    for (const ChildEntry& s : r->splits) new_entries.push_back({i, s});
    structural |= r->structural;
  }
  // Record pushes in TD(M) so queries see them regardless of TS staleness.
  CCIDX_RETURN_IF_ERROR(AddToTd(ctrl, push));

  // Splice split siblings (iterate in reverse so indices stay valid).
  for (auto it = new_entries.rbegin(); it != new_entries.rend(); ++it) {
    children.insert(children.begin() + it->first + 1, it->second);
  }
  if (ctrl->children_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl->children_head));
  }
  auto ids = io.WriteChain<ChildEntry>(children);
  CCIDX_RETURN_IF_ERROR(ids.status());
  ctrl->children_head = ids->front();
  ctrl->own.num_children = static_cast<uint32_t>(children.size());

  result->structural = true;  // this node performed a level II
  if (ctrl->own.num_children >= 2 * branching_) {
    // Branching overflow: the caller rebuilds this subtree wholesale, which
    // refreshes every TS below; skip the redundant reorganization.
    return Status::OK();
  }
  if (structural || ctrl->td_count >= b2) {
    CCIDX_RETURN_IF_ERROR(TsReorganizeChildren(ctrl));
  }
  return Status::OK();
}

template <typename Family>
Result<typename MetablockEngine<Family>::AddResult>
MetablockEngine<Family>::AddPoints(PageId id, std::vector<Point> pts) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = metablock_capacity();

  AddResult res;
  if (ctrl.own.num_children > 0) {
    // --- Internal node ---
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    bool needs_rebuild = false;
    for (const Point& p : pts) {
      ctrl.sub_xlo = std::min(ctrl.sub_xlo, p.x);
      ctrl.sub_xhi = std::max(ctrl.sub_xhi, p.x);
      ctrl.update_ymax = std::max(ctrl.update_ymax, p.y);
      ctrl.node_ymax = std::max(ctrl.node_ymax, p.y);
      upd.push_back(p);
      if (upd.size() >= branching_) {
        ctrl.update_count = static_cast<uint32_t>(upd.size());
        CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, upd));
        CCIDX_RETURN_IF_ERROR(LevelOne(&ctrl));
        upd.clear();
        if (ctrl.own.num_points >= 2 * b2) {
          CCIDX_RETURN_IF_ERROR(LevelTwoInternal(&ctrl, &res));
          if (ctrl.own.num_children >= 2 * branching_) needs_rebuild = true;
        }
      }
    }
    ctrl.update_count = static_cast<uint32_t>(upd.size());
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, upd));
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, id, ctrl));
    if (needs_rebuild) {
      auto new_id = RebuildSubtree(id);
      CCIDX_RETURN_IF_ERROR(new_id.status());
      id = *new_id;
      res.structural = true;
      CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    }
    res.entry = Family::Entry(ctrl, id);
    return res;
  }

  // --- Leaf node: may split repeatedly while absorbing a large batch ---
  struct Part {
    PageId id;
    Control ctrl;
    std::vector<Point> upd;
  };
  std::vector<Part> parts;
  parts.push_back({id, ctrl, {}});
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &parts[0].upd));

  for (const Point& p : pts) {
    size_t target = 0;
    for (size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].ctrl.sub_xlo <= p.x) target = i;
    }
    Part* part = &parts[target];
    part->ctrl.sub_xlo = std::min(part->ctrl.sub_xlo, p.x);
    part->ctrl.sub_xhi = std::max(part->ctrl.sub_xhi, p.x);
    part->ctrl.update_ymax = std::max(part->ctrl.update_ymax, p.y);
    part->ctrl.node_ymax = std::max(part->ctrl.node_ymax, p.y);
    part->upd.push_back(p);
    if (part->upd.size() < branching_) continue;
    part->ctrl.update_count = static_cast<uint32_t>(part->upd.size());
    CCIDX_RETURN_IF_ERROR(
        io.WriteRecords<Point>(part->ctrl.update_page, part->upd));
    CCIDX_RETURN_IF_ERROR(LevelOne(&part->ctrl));
    part->upd.clear();
    if (part->ctrl.own.num_points < 2 * b2) continue;
    // Split this leaf into two by x.
    std::vector<Point> own;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(part->ctrl.own.horiz_head, &own));
    std::sort(own.begin(), own.end(), PointXOrder());
    const size_t half =
        Family::kTieFreeSplit ? TieFreeSplit(own) : own.size() / 2;
    if (half == 0) continue;  // all-equal x: defer (stays oversized)
    std::vector<Point> right(own.begin() + half, own.end());
    own.resize(half);

    Part rp;
    rp.id = pager_->Allocate();
    rp.ctrl = EmptyControl();
    rp.ctrl.update_page = pager_->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(rp.ctrl.update_page, {}));
    rp.ctrl.sub_xlo = right.front().x;
    rp.ctrl.sub_xhi = part->ctrl.sub_xhi;
    part->ctrl.sub_xhi = own.back().x;
    CCIDX_RETURN_IF_ERROR(Reorganize(&part->ctrl, &own));
    CCIDX_RETURN_IF_ERROR(Reorganize(&rp.ctrl, &right));
    parts.insert(parts.begin() + target + 1, std::move(rp));
  }
  for (Part& part : parts) {
    part.ctrl.update_count = static_cast<uint32_t>(part.upd.size());
    CCIDX_RETURN_IF_ERROR(
        io.WriteRecords<Point>(part.ctrl.update_page, part.upd));
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, part.id, part.ctrl));
  }
  res.entry = Family::Entry(parts[0].ctrl, parts[0].id);
  for (size_t i = 1; i < parts.size(); ++i) {
    res.splits.push_back(Family::Entry(parts[i].ctrl, parts[i].id));
    res.structural = true;
  }
  return res;
}

template <typename Family>
Result<PageId> MetablockEngine<Family>::RebuildSubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  // Preserve this node's own TS chains (owned logically by the parent).
  std::vector<Point> ts_left, ts_right;
  if (ctrl.ts_left_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.ts_left_head, &ts_left));
  }
  if (ctrl.ts_right_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.ts_right_head, &ts_right));
  }
  std::vector<Point> all;
  CCIDX_RETURN_IF_ERROR(CollectSubtree(id, &all));
  CCIDX_RETURN_IF_ERROR(DestroySubtree(id));
  CCIDX_CHECK(!all.empty());
  std::sort(all.begin(), all.end(), PointXOrder());
  auto built = BuildNode(pager_, PointGroup::FromVector(std::move(all)),
                         branching_);
  CCIDX_RETURN_IF_ERROR(built.status());
  for (auto [pts, head] : {std::pair{&ts_left, &built->ctrl.ts_left_head},
                           std::pair{&ts_right, &built->ctrl.ts_right_head}}) {
    if (pts->empty()) continue;
    auto chain = WriteDescYChain(pager_, std::move(*pts));
    CCIDX_RETURN_IF_ERROR(chain.status());
    *head = *chain;
  }
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager_, built->control_page, built->ctrl));
  return built->control_page;
}

template <typename Family>
Status MetablockEngine<Family>::Insert(const Point& p) {
  if (Family::kAboveDiagonal && p.y < p.x) {
    return Status::InvalidArgument("points must satisfy y >= x");
  }
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  if (tombstones_.Consume(p)) {
    // The identical point is still stored, only tombstoned: consuming the
    // tombstone resurrects it at zero I/O.
    sched_.NoteTombstoneConsumed();
    size_++;
    return Status::OK();
  }
  // Single-writer tree: one WAL txn covers the descent, any split
  // rebuild, and the buffered-update page writes, committed under
  // write_mu_. (The resurrection path above writes nothing.)
  WalScope ws(pager_);
  if (root_ == kInvalidPageId) {
    auto root = BuildRoot(pager_, {p}, branching_);
    CCIDX_RETURN_IF_ERROR(root.status());
    root_ = *root;
    size_ = 1;
    return ws.Commit();
  }
  auto res = AddPoints(root_, {p});
  CCIDX_RETURN_IF_ERROR(res.status());
  root_ = res->entry.control;
  if (!res->splits.empty()) {
    // The root was a leaf and split: rebuild the whole (small) tree so the
    // root becomes a proper internal metablock.
    std::vector<Point> all;
    CCIDX_RETURN_IF_ERROR(CollectSubtree(root_, &all));
    CCIDX_RETURN_IF_ERROR(DestroySubtree(root_));
    for (const ChildEntry& s : res->splits) {
      CCIDX_RETURN_IF_ERROR(CollectSubtree(s.control, &all));
      CCIDX_RETURN_IF_ERROR(DestroySubtree(s.control));
    }
    std::sort(all.begin(), all.end(), PointXOrder());
    auto root = BuildRoot(pager_, std::move(all), branching_);
    CCIDX_RETURN_IF_ERROR(root.status());
    root_ = *root;
  }
  size_++;
  return ws.Commit();
}

// ---------------------------------------------------------------------------
// Weak deletes
// ---------------------------------------------------------------------------

template <typename Family>
Status MetablockEngine<Family>::Delete(const Point& p, bool* found) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  *found = false;
  if (root_ == kInvalidPageId) return Status::OK();
  if (Family::kAboveDiagonal && p.y < p.x) return Status::OK();
  if (tombstones_.Contains(p)) return Status::OK();  // already dead
  // Membership probe: a directed descent along p.x's routing path.
  // Read-only — a device failure here leaves the tree untouched.
  bool exists = false;
  CCIDX_RETURN_IF_ERROR(Locate(root_, p, &exists));
  if (!exists) return Status::OK();
  *found = true;
  return DeleteKnownLocked(p);
}

template <typename Family>
Status MetablockEngine<Family>::Locate(PageId id, const Point& p,
                                       bool* found) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  auto holds = [&](PageId page) -> Status {
    auto view = io.ViewRecords<Point>(page);
    CCIDX_RETURN_IF_ERROR(view.status());
    *found = std::find(view->records.begin(), view->records.end(), p) !=
             view->records.end();
    return Status::OK();
  };
  if (ctrl.update_count > 0 && p.y <= ctrl.update_ymax) {
    CCIDX_RETURN_IF_ERROR(holds(ctrl.update_page));
    if (*found) return Status::OK();
  }
  const OwnOrganization& own = ctrl.own;
  if (own.num_points > 0 && p.x >= own.bbox_xmin && p.x <= own.bbox_xmax &&
      p.y >= own.bbox_ymin && p.y <= own.bbox_ymax) {
    // Own points ascend by x across the vertical blocks; an x tie may
    // span several of them.
    std::vector<VerticalBlock> index;
    CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, own.vindex_head, &index));
    for (const VerticalBlock& blk : index) {
      if (blk.xlo > p.x) break;
      if (blk.xhi < p.x) continue;
      CCIDX_RETURN_IF_ERROR(holds(blk.page));
      if (*found) return Status::OK();
    }
  }
  if (ctrl.own.num_children == 0 || ctrl.desc_ymax < p.y) return Status::OK();
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
  // Points reach a child by RouteChild, but in the diagonal family a bulk
  // build or a leaf split may leave an x tie on both sides of a child
  // boundary: child i - 1 can hold p.x too when child i starts exactly at
  // p.x. (3-sided boundaries are tie-free, so the walk stops at once.)
  for (size_t i = RouteChild(children, p.x) + 1; i-- > 0;) {
    if (children[i].node_ymax >= p.y) {
      CCIDX_RETURN_IF_ERROR(Locate(children[i].control, p, found));
      if (*found) return Status::OK();
    }
    if (children[i].sub_xlo != p.x) break;
  }
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::DeleteKnown(const Point& p) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  return DeleteKnownLocked(p);
}

template <typename Family>
Status MetablockEngine<Family>::DeleteKnownLocked(const Point& p) {
  if (!tombstones_.Add(p)) return Status::OK();  // already dead
  sched_.NoteDelete();
  if (size_ > 0) size_--;
  if (sched_.ShouldPurge(size_)) return GlobalPurgeRebuild();
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::GlobalPurgeRebuild() {
  // Shared fault-atomic skeleton (dynamic/purge_rebuild.h): harvest
  // points + page ids read-only, drop tombstoned points, rebuild the
  // live set through the bulk-build pipeline under an AllocationScope,
  // then retire the old pages by id.
  // One WAL txn spans build and retire: a crash mid-purge rolls back to
  // the pre-purge tree (the in-memory tombstones are not durable — these
  // families recover through their owner's rebuild, not AttachMeta).
  WalScope ws(pager_);
  PageId new_root = kInvalidPageId;
  CCIDX_RETURN_IF_ERROR(PurgeRebuild(
      pager_, &tombstones_, &sched_,
      [&](std::vector<Point>* out) { return CollectSubtree(root_, out); },
      [&](std::vector<PageId>* out) { return VisitSubtreePages(root_, out); },
      [&](std::vector<Point> live) {
        if (live.empty()) return Status::OK();
        std::sort(live.begin(), live.end(), PointXOrder());
        auto root = BuildRoot(pager_, std::move(live), branching_);
        CCIDX_RETURN_IF_ERROR(root.status());
        new_root = *root;
        return Status::OK();
      }));
  root_ = new_root;
  return ws.Commit();
}

// ---------------------------------------------------------------------------
// Query helpers
// ---------------------------------------------------------------------------

template <typename Family>
Status MetablockEngine<Family>::Query(const typename Family::Query& q,
                                      ResultSink<Point>* sink) const {
  const Tree& tree = static_cast<const Tree&>(*this);
  if (tombstones_.empty()) return tree.QueryRaw(q, sink);
  // Weak deletes outstanding: filter dead points out of every reporting
  // path (a hash probe per emitted record, zero extra I/O). kStop from
  // the consumer still latches through the filter.
  PointLiveFilterSink filter(&tombstones_, sink);
  return tree.QueryRaw(q, &filter);
}

template <typename Family>
Status MetablockEngine<Family>::Query(const typename Family::Query& q,
                                      std::vector<Point>* out) const {
  VectorSink<Point> sink(out);
  return Query(q, &sink);
}

template <typename Family>
Status MetablockEngine<Family>::ReportNode(const Control& ctrl,
                                           const ThreeSidedQuery& q,
                                           SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  // Buffered inserts are examined alongside every organization (Lemma 3.5).
  if (ctrl.update_count > 0) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFiltered3Sided(em, upd, q.xlo, q.xhi, q.ylo);
  }
  return ctrl.own.Report(pager_, Family::kSide, q, em);
}

template <typename Family>
Status MetablockEngine<Family>::ReportSubtree(PageId id, Coord ylo,
                                              SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  auto crossed = ScanDescYChain(pager_, ctrl.own.horiz_head, ylo, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (ctrl.update_count > 0 && !em.stopped()) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFilteredYAtLeast(em, upd, ylo);
  }
  // Descend iff some strict descendant can qualify (watermark rule; see
  // the header comment — push-downs may break the static heap order, so
  // the static "stop when crossed" rule alone would be incorrect here).
  if (ctrl.own.num_children == 0 || ctrl.desc_ymax < ylo || em.stopped()) {
    return Status::OK();
  }
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.node_ymax >= ylo) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, ylo, em));
    }
  }
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::ReportTd(
    const Control& ctrl, const ThreeSidedQuery& q,
    const std::function<bool(const Point&)>& keep,
    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  std::vector<Point> hits;
  CCIDX_RETURN_IF_ERROR(
      QuerySide(pager_, Family::kSide, ctrl.td_header, q, &hits));
  if (ctrl.td_update_count > 0) {
    std::vector<Point> buf;
    auto next = PageIo(pager_).ReadRecords<Point>(ctrl.td_update_page, &buf);
    CCIDX_RETURN_IF_ERROR(next.status());
    for (const Point& p : buf) {
      if (q.Contains(p)) hits.push_back(p);
    }
  }
  em.EmitFiltered(hits, keep);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

template <typename Family>
Status MetablockEngine<Family>::CollectSubtree(
    PageId id, std::vector<Point>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  CCIDX_RETURN_IF_ERROR(ReadStored(ctrl, out));
  if (ctrl.own.num_children == 0) return Status::OK();
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
  for (const ChildEntry& c : children) {
    CCIDX_RETURN_IF_ERROR(CollectSubtree(c.control, out));
  }
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::DestroySubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(ctrl.own.Free(pager_, Family::kSide));
  for (PageId head : {ctrl.ts_left_head, ctrl.ts_right_head}) {
    if (head != kInvalidPageId) CCIDX_RETURN_IF_ERROR(io.FreeChain(head));
  }
  CCIDX_RETURN_IF_ERROR(
      FreeSide(pager_, SideKind::kPst, ctrl.children_pst_root));
  CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.update_page));
  if (ctrl.td_update_page != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.td_update_page));
  }
  CCIDX_RETURN_IF_ERROR(FreeSide(pager_, Family::kSide, ctrl.td_header));
  if (ctrl.own.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(DestroySubtree(c.control));
    }
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.children_head));
  }
  return pager_->Free(id);
}

template <typename Family>
Status MetablockEngine<Family>::VisitSubtreePages(
    PageId id, std::vector<PageId>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(ctrl.own.Visit(pager_, Family::kSide, out));
  for (PageId head : {ctrl.ts_left_head, ctrl.ts_right_head}) {
    if (head != kInvalidPageId) CCIDX_RETURN_IF_ERROR(io.VisitChain(head, out));
  }
  CCIDX_RETURN_IF_ERROR(
      VisitSide(pager_, SideKind::kPst, ctrl.children_pst_root, out));
  out->push_back(ctrl.update_page);
  if (ctrl.td_update_page != kInvalidPageId) {
    out->push_back(ctrl.td_update_page);
  }
  CCIDX_RETURN_IF_ERROR(VisitSide(pager_, Family::kSide, ctrl.td_header, out));
  if (ctrl.own.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(VisitSubtreePages(c.control, out));
    }
    CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.children_head, out));
  }
  out->push_back(id);
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::Destroy() {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  if (root_ == kInvalidPageId) return Status::OK();
  WalScope ws(pager_);
  CCIDX_RETURN_IF_ERROR(DestroySubtree(root_));
  root_ = kInvalidPageId;
  size_ = 0;
  tombstones_.Clear();
  sched_.Reset();
  return ws.Commit();
}

template <typename Family>
Status MetablockEngine<Family>::CheckSubtree(PageId id, Coord* node_ymax_out,
                                             uint64_t* count_out,
                                             uint32_t* height_out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  const uint32_t b2 = metablock_capacity();

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(ctrl.own.Check(pager_, Family::kSide, &own));
  // Only a 3-sided leaf whose points share one x may stay oversized: a
  // tie-free split cannot cut it.
  const bool unsplittable = Family::kTieFreeSplit && ctrl.own.num_children == 0 &&
                            ctrl.own.bbox_xmin == ctrl.own.bbox_xmax;
  if (ctrl.own.num_points >= 2 * b2 && !unsplittable) {
    return Status::Corruption("metablock at or above 2B^2");
  }
  if (ctrl.own.num_children > 0 && ctrl.own.num_points < b2) {
    return Status::Corruption("internal metablock below B^2");
  }
  if (ctrl.own.num_children >= 2 * branching_) {
    return Status::Corruption("branching factor at or above 2B");
  }
  std::vector<Point> upd;
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
  if (upd.size() != ctrl.update_count || upd.size() >= branching_) {
    return Status::Corruption("update block inconsistent");
  }
  Coord actual_upd_ymax = kCoordMin;
  for (const Point& p : upd) actual_upd_ymax = std::max(actual_upd_ymax, p.y);
  if (ctrl.update_ymax < actual_upd_ymax) {
    return Status::Corruption("update_ymax below actual");
  }
  for (const std::vector<Point>* set : {&own, &upd}) {
    for (const Point& p : *set) {
      if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
        return Status::Corruption("point outside subtree x-interval");
      }
    }
  }

  uint64_t count = own.size() + upd.size();
  Coord desc_actual = kCoordMin;
  uint32_t child_height = 0;
  if (ctrl.own.num_children > 0) {
    if (ctrl.td_update_page == kInvalidPageId) {
      return Status::Corruption("internal node lacks TD buffer");
    }
    if (Family::kTwoSidedTs && ctrl.children_pst_root == kInvalidPageId) {
      return Status::Corruption("missing children PST");
    }
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(ReadChildren(ctrl, &children));
    if (children.size() != ctrl.own.num_children) {
      return Status::Corruption("children count mismatch");
    }
    // With TD empty nothing was pushed into the children since their TS
    // chains were last written, so those must be exact.
    const bool ts_fresh = ctrl.td_header == kInvalidPageId &&
                          ctrl.td_update_count == 0;
    TsChainChecker left(b2);
    std::vector<std::pair<PageId, std::vector<Point>>> right_chains;
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) {
        if constexpr (Family::kTieFreeSplit) {
          if (children[i].sub_xlo <= children[i - 1].sub_xhi) {
            return Status::Corruption("child x-intervals overlap");
          }
        } else if (children[i].sub_xlo < children[i - 1].sub_xlo) {
          return Status::Corruption("children not ordered by x");
        }
      }
      Coord child_ymax = kCoordMin;
      uint64_t child_count = 0;
      uint32_t h = 0;
      CCIDX_RETURN_IF_ERROR(
          CheckSubtree(children[i].control, &child_ymax, &child_count, &h));
      if (children[i].node_ymax < child_ymax) {
        return Status::Corruption("stale child node_ymax in parent entry");
      }
      desc_actual = std::max(desc_actual, child_ymax);
      count += child_count;
      child_height = std::max(child_height, h);
      if (ts_fresh) {
        Control child;
        CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &child));
        std::vector<Point> stored;
        CCIDX_RETURN_IF_ERROR(ReadStored(child, &stored));
        if (Family::kTwoSidedTs) {
          right_chains.push_back({child.ts_right_head, stored});
        }
        CCIDX_RETURN_IF_ERROR(
            left.Next(pager_, child.ts_left_head, std::move(stored)));
      }
    }
    TsChainChecker right(b2);
    for (auto it = right_chains.rbegin(); it != right_chains.rend(); ++it) {
      CCIDX_RETURN_IF_ERROR(
          right.Next(pager_, it->first, std::move(it->second)));
    }
    if (ctrl.desc_ymax < desc_actual) {
      return Status::Corruption("desc_ymax watermark below actual");
    }
  }
  Coord actual_node_ymax =
      std::max({own.empty() ? kCoordMin : ctrl.own.bbox_ymax,
                actual_upd_ymax, desc_actual});
  if (ctrl.node_ymax < actual_node_ymax) {
    return Status::Corruption("node_ymax watermark below actual");
  }
  *node_ymax_out = actual_node_ymax;
  *count_out = count;
  *height_out = child_height + 1;
  return Status::OK();
}

template <typename Family>
Status MetablockEngine<Family>::CheckInvariants(uint32_t* height) const {
  if (root_ == kInvalidPageId) {
    if (height != nullptr) *height = 0;
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree with nonzero size");
  }
  Coord ymax = kCoordMin;
  uint64_t count = 0;
  uint32_t h = 0;
  CCIDX_RETURN_IF_ERROR(CheckSubtree(root_, &ymax, &count, &h));
  if (height != nullptr) *height = h;
  // Tombstoned points remain physically stored until the next purge.
  if (count != size_ + tombstones_.size()) {
    return Status::Corruption("total point count mismatch");
  }
  return Status::OK();
}

template class MetablockEngine<DiagonalFamily>;
template class MetablockEngine<ThreeSidedFamily>;

}  // namespace ccidx
