#include "ccidx/serve/codec.h"

#include <cstring>

namespace ccidx {
namespace serve {
namespace {

// --- little-endian primitives -------------------------------------------

void Put8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void Put16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void Put32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Put64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  Put64(out, static_cast<uint64_t>(v));
}

// Bounds-checked reader over a payload span.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  bool Get8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }
  bool Get16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool Get32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = r;
    return true;
  }
  bool Get64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = r;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t u;
    if (!Get64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

void PutHeader(std::vector<uint8_t>* out, MessageKind kind,
               uint32_t payload_len) {
  Put32(out, kFrameMagic);
  Put8(out, kWireVersion);
  Put8(out, static_cast<uint8_t>(kind));
  Put16(out, 0);  // flags, reserved
  Put32(out, payload_len);
}

// Validates a complete frame and returns its payload span.
Status SplitFrame(std::span<const uint8_t> frame, MessageKind want_kind,
                  std::span<const uint8_t>* payload) {
  if (frame.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame shorter than header");
  }
  Reader r(frame);
  uint32_t magic, len;
  uint8_t version, kind;
  uint16_t flags;
  r.Get32(&magic);
  r.Get8(&version);
  r.Get8(&kind);
  r.Get16(&flags);
  r.Get32(&len);
  if (magic != kFrameMagic) return Status::Corruption("bad frame magic");
  if (version != kWireVersion) {
    return Status::NotSupported("unknown wire version");
  }
  if (kind != static_cast<uint8_t>(want_kind)) {
    return Status::InvalidArgument("unexpected message kind");
  }
  if (len > kMaxPayloadBytes) return Status::Corruption("payload too large");
  if (frame.size() != kFrameHeaderBytes + len) {
    return Status::InvalidArgument("frame length mismatch");
  }
  *payload = frame.subspan(kFrameHeaderBytes, len);
  return Status::OK();
}

}  // namespace

void EncodeRequest(const Request& req, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  PutHeader(out, MessageKind::kRequest, 0);
  const size_t payload_at = out->size();
  Put64(out, req.id);
  Put8(out, static_cast<uint8_t>(req.type));
  Put8(out, static_cast<uint8_t>(req.mode));
  Put32(out, req.limit);
  Put32(out, req.deadline_us);
  for (int64_t a : req.args) PutI64(out, a);
  Put32(out, static_cast<uint32_t>(req.updates.size()));
  for (const UpdateOp& op : req.updates) {
    Put8(out, static_cast<uint8_t>(op.kind));
    PutI64(out, op.key);
    Put64(out, op.value);
    PutI64(out, op.aux);
  }
  // Backpatch the payload length now that it is known.
  const uint32_t len = static_cast<uint32_t>(out->size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + 8 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
}

void EncodeResponse(const Response& resp, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  PutHeader(out, MessageKind::kResponse, 0);
  const size_t payload_at = out->size();
  Put64(out, resp.id);
  Put8(out, static_cast<uint8_t>(resp.status));
  Put64(out, resp.count);
  Put32(out, static_cast<uint32_t>(resp.records.size()));
  for (const auto& rec : resp.records) {
    for (uint64_t w : rec) Put64(out, w);
  }
  Put32(out, static_cast<uint32_t>(resp.update_status.size()));
  for (uint8_t s : resp.update_status) Put8(out, s);
  const uint32_t len = static_cast<uint32_t>(out->size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + 8 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
}

Status DecodeRequest(std::span<const uint8_t> frame, Request* req) {
  // Parse into *req directly: on failure the request id (parsed first)
  // survives when it was readable, so the server can answer kBadRequest
  // addressed to the right sequence slot. Only an OK return makes the
  // rest of *req meaningful.
  *req = Request{};
  std::span<const uint8_t> payload;
  Status s = SplitFrame(frame, MessageKind::kRequest, &payload);
  if (!s.ok()) return s;
  Reader r(payload);
  uint8_t type, mode;
  uint32_t n_updates;
  if (!r.Get64(&req->id) || !r.Get8(&type) || !r.Get8(&mode) ||
      !r.Get32(&req->limit) || !r.Get32(&req->deadline_us) ||
      !r.GetI64(&req->args[0]) || !r.GetI64(&req->args[1]) ||
      !r.GetI64(&req->args[2]) || !r.Get32(&n_updates)) {
    return Status::InvalidArgument("truncated request payload");
  }
  if (type > kMaxRequestType) {
    return Status::InvalidArgument("unknown request type");
  }
  if (mode > kMaxResultMode) {
    return Status::InvalidArgument("unknown result mode");
  }
  // 25 bytes per op; the count must match the remaining payload exactly.
  constexpr size_t kOpBytes = 1 + 8 + 8 + 8;
  if (r.remaining() != static_cast<size_t>(n_updates) * kOpBytes) {
    return Status::InvalidArgument("update count/payload mismatch");
  }
  req->type = static_cast<RequestType>(type);
  req->mode = static_cast<ResultMode>(mode);
  req->updates.reserve(n_updates);
  for (uint32_t i = 0; i < n_updates; ++i) {
    uint8_t kind = 0;
    UpdateOp op;
    r.Get8(&kind);
    r.GetI64(&op.key);
    r.Get64(&op.value);
    r.GetI64(&op.aux);
    if (kind > static_cast<uint8_t>(UpdateOp::Kind::kDelete)) {
      return Status::InvalidArgument("unknown update op kind");
    }
    op.kind = static_cast<UpdateOp::Kind>(kind);
    req->updates.push_back(op);
  }
  return Status::OK();
}

Status DecodeResponse(std::span<const uint8_t> frame, Response* resp) {
  std::span<const uint8_t> payload;
  Status s = SplitFrame(frame, MessageKind::kResponse, &payload);
  if (!s.ok()) return s;
  Reader r(payload);
  uint8_t status;
  uint32_t n_records;
  Response out;
  if (!r.Get64(&out.id) || !r.Get8(&status) || !r.Get64(&out.count) ||
      !r.Get32(&n_records)) {
    return Status::InvalidArgument("truncated response payload");
  }
  if (status > static_cast<uint8_t>(WireStatus::kError)) {
    return Status::InvalidArgument("unknown wire status");
  }
  out.status = static_cast<WireStatus>(status);
  constexpr size_t kRecordBytes = 24;
  if (r.remaining() < static_cast<size_t>(n_records) * kRecordBytes + 4) {
    return Status::InvalidArgument("record count/payload mismatch");
  }
  out.records.reserve(n_records);
  for (uint32_t i = 0; i < n_records; ++i) {
    std::array<uint64_t, 3> rec;
    r.Get64(&rec[0]);
    r.Get64(&rec[1]);
    r.Get64(&rec[2]);
    out.records.push_back(rec);
  }
  uint32_t n_status;
  if (!r.Get32(&n_status) || r.remaining() != n_status) {
    return Status::InvalidArgument("update-status count/payload mismatch");
  }
  out.update_status.reserve(n_status);
  for (uint32_t i = 0; i < n_status; ++i) {
    uint8_t b = 0;
    r.Get8(&b);
    out.update_status.push_back(b);
  }
  *resp = std::move(out);
  return Status::OK();
}

Status FrameScanner::Next(std::span<const uint8_t>* frame) {
  *frame = {};
  if (poisoned_) return Status::Corruption("frame stream poisoned");
  // Compact lazily: once everything handed out is consumed, drop it.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (1u << 20)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(consumed_));
    consumed_ = 0;
  }
  const size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return Status::OK();
  const uint8_t* p = buf_.data() + consumed_;
  auto le32 = [](const uint8_t* b) {
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
  };
  const uint32_t magic = le32(p);
  const uint32_t len = le32(p + 8);
  if (magic != kFrameMagic || p[4] != kWireVersion ||
      len > kMaxPayloadBytes) {
    poisoned_ = true;
    return Status::Corruption("bad frame header in stream");
  }
  const size_t total = kFrameHeaderBytes + len;
  if (avail < total) return Status::OK();
  *frame = std::span<const uint8_t>(p, total);
  consumed_ += total;
  return Status::OK();
}

}  // namespace serve
}  // namespace ccidx
