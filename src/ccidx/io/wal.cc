#include "ccidx/io/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "ccidx/io/pager.h"

namespace ccidx {

namespace {

// ---------------------------------------------------------------------------
// CRC32 (software table; IEEE polynomial) — guards every record header +
// payload so a torn tail or bit rot truncates the log instead of replaying
// garbage.
// ---------------------------------------------------------------------------

const uint32_t* Crc32Table() {
  static const auto* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

uint32_t Crc32(uint32_t seed, const uint8_t* data, size_t n) {
  const uint32_t* table = Crc32Table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// Record wire format: [u32 crc][u32 len][u16 type][u16 flags][u64 txn]
// [payload: len bytes]; crc covers everything after the crc field.
constexpr size_t kHeaderSize = 4 + 4 + 2 + 2 + 8;
// A page image dominates record size; anything above this is corruption.
constexpr uint32_t kMaxPayload = 64u << 20;

std::vector<uint8_t> EncodeRecord(WalRecordType type, uint64_t txn,
                                  std::span<const uint8_t> payload) {
  std::vector<uint8_t> rec(kHeaderSize + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint16_t type16 = static_cast<uint16_t>(type);
  uint16_t flags = 0;
  std::memcpy(rec.data() + 4, &len, 4);
  std::memcpy(rec.data() + 8, &type16, 2);
  std::memcpy(rec.data() + 10, &flags, 2);
  std::memcpy(rec.data() + 12, &txn, 8);
  if (!payload.empty()) {
    std::memcpy(rec.data() + kHeaderSize, payload.data(), payload.size());
  }
  uint32_t crc = Crc32(0, rec.data() + 4, rec.size() - 4);
  std::memcpy(rec.data(), &crc, 4);
  return rec;
}

// Parses records from `log`, stopping (and setting *torn) at the first
// short, oversized, or CRC-failing record.
std::vector<WalRecord> ParseLog(std::span<const uint8_t> log, bool* torn) {
  std::vector<WalRecord> out;
  *torn = false;
  size_t pos = 0;
  while (pos < log.size()) {
    if (log.size() - pos < kHeaderSize) {
      *torn = true;
      break;
    }
    uint32_t crc, len;
    uint16_t type16, flags;
    uint64_t txn;
    std::memcpy(&crc, log.data() + pos, 4);
    std::memcpy(&len, log.data() + pos + 4, 4);
    std::memcpy(&type16, log.data() + pos + 8, 2);
    std::memcpy(&flags, log.data() + pos + 10, 2);
    std::memcpy(&txn, log.data() + pos + 12, 8);
    if (len > kMaxPayload || log.size() - pos - kHeaderSize < len) {
      *torn = true;
      break;
    }
    uint32_t want = Crc32(0, log.data() + pos + 4, kHeaderSize - 4 + len);
    if (want != crc) {
      *torn = true;
      break;
    }
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(type16);
    rec.txn = txn;
    rec.payload.assign(log.data() + pos + kHeaderSize,
                       log.data() + pos + kHeaderSize + len);
    out.push_back(std::move(rec));
    pos += kHeaderSize + len;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Log storage flavors
// ---------------------------------------------------------------------------

class MemWalStorage final : public WalStorage {
 public:
  const char* name() const override { return "mem"; }
  Status Append(std::span<const uint8_t> bytes) override {
    std::lock_guard lock(mu_);
    log_.insert(log_.end(), bytes.begin(), bytes.end());
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status ReadAll(std::vector<uint8_t>* out) override {
    std::lock_guard lock(mu_);
    *out = log_;
    return Status::OK();
  }
  Status Reset(std::span<const uint8_t> bytes) override {
    std::lock_guard lock(mu_);
    log_.assign(bytes.begin(), bytes.end());
    return Status::OK();
  }
  uint64_t size() const override {
    std::lock_guard lock(mu_);
    return log_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint8_t> log_;
};

class FileWalStorage final : public WalStorage {
 public:
  explicit FileWalStorage(const std::string& path) : path_(path) {
    // A leftover temp file means a crash hit mid-Reset before the rename;
    // the log at path_ is still the intact previous log. Discard the
    // orphan so it can't be mistaken for anything.
    (void)::unlink(TmpPath().c_str());
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    CCIDX_CHECK(fd_ >= 0);
    off_t end = ::lseek(fd_, 0, SEEK_END);
    size_ = end < 0 ? 0 : static_cast<uint64_t>(end);
  }
  ~FileWalStorage() override {
    if (fd_ >= 0) ::close(fd_);
  }

  const char* name() const override { return "file"; }

  Status Append(std::span<const uint8_t> bytes) override {
    std::lock_guard lock(mu_);
    return WriteAt(bytes, size_);
  }

  Status Sync() override {
    std::lock_guard lock(mu_);
    if (::fdatasync(fd_) != 0) {
      return Status::IoError("wal fdatasync failed: " +
                             std::string(std::strerror(errno)));
    }
    return Status::OK();
  }

  Status ReadAll(std::vector<uint8_t>* out) override {
    std::lock_guard lock(mu_);
    out->resize(size_);
    size_t done = 0;
    while (done < out->size()) {
      ssize_t n = ::pread(fd_, out->data() + done, out->size() - done,
                          static_cast<off_t>(done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::IoError("wal pread failed: " +
                               std::string(std::strerror(errno)));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  // Crash-atomic whole-log replacement: write the new log to a temp file,
  // make it durable, then rename(2) over the old path and fsync the
  // directory. Power loss at any point leaves either the complete old log
  // or the complete new one — never the empty/torn file that a
  // truncate-then-write protocol exposes between its two steps.
  Status Reset(std::span<const uint8_t> bytes) override {
    std::lock_guard lock(mu_);
    const std::string tmp = TmpPath();
    int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) {
      return Status::IoError("wal tmp open failed: " +
                             std::string(std::strerror(errno)));
    }
    auto fail = [&](const char* what) {
      Status s = Status::IoError(std::string(what) + " failed: " +
                                 std::strerror(errno));
      ::close(tfd);
      (void)::unlink(tmp.c_str());
      return s;
    };
    size_t done = 0;
    while (done < bytes.size()) {
      ssize_t n = ::pwrite(tfd, bytes.data() + done, bytes.size() - done,
                           static_cast<off_t>(done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return fail("wal tmp pwrite");
      done += static_cast<size_t>(n);
    }
    if (::fdatasync(tfd) != 0) return fail("wal tmp fdatasync");
    if (::rename(tmp.c_str(), path_.c_str()) != 0) return fail("wal rename");
    // The new log is now the log; retarget the fd before the directory
    // sync so even a failed dir fsync leaves us appending to the right
    // inode.
    ::close(fd_);
    fd_ = tfd;
    size_ = bytes.size();
    return SyncDir();
  }

  uint64_t size() const override {
    std::lock_guard lock(mu_);
    return size_;
  }

 private:
  // Requires mu_.
  Status WriteAt(std::span<const uint8_t> bytes, uint64_t off) {
    size_t done = 0;
    while (done < bytes.size()) {
      ssize_t n = ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                           static_cast<off_t>(off + done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::IoError("wal pwrite failed: " +
                               std::string(std::strerror(errno)));
      }
      done += static_cast<size_t>(n);
    }
    size_ = std::max(size_, off + bytes.size());
    return Status::OK();
  }

  std::string TmpPath() const { return path_ + ".tmp"; }

  // Makes the rename in Reset durable: fsync the containing directory.
  Status SyncDir() const {
    size_t slash = path_.rfind('/');
    std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
    if (dir.empty()) dir = "/";
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
      return Status::IoError("wal dir open failed: " +
                             std::string(std::strerror(errno)));
    }
    int rc = ::fsync(dfd);
    ::close(dfd);
    if (rc != 0) {
      return Status::IoError("wal dir fsync failed: " +
                             std::string(std::strerror(errno)));
    }
    return Status::OK();
  }

  std::string path_;
  int fd_ = -1;
  mutable std::mutex mu_;
  uint64_t size_ = 0;
};

}  // namespace

std::unique_ptr<WalStorage> MakeMemWalStorage() {
  return std::make_unique<MemWalStorage>();
}

std::unique_ptr<WalStorage> MakeFileWalStorage(const std::string& path) {
  return std::make_unique<FileWalStorage>(path);
}

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

Wal::Wal(BlockDevice* device, std::unique_ptr<WalStorage> storage)
    : device_(device), storage_(std::move(storage)) {
  CCIDX_CHECK(device_ != nullptr);
  CCIDX_CHECK(storage_ != nullptr);
}

Status Wal::AppendRecord(WalRecordType type, uint64_t txn,
                         std::span<const uint8_t> payload) {
  // Encode (payload copy + CRC) outside the lock: page images dominate
  // record size and this keeps concurrent appenders off each other.
  std::vector<uint8_t> rec = EncodeRecord(type, txn, payload);
  std::lock_guard lock(append_mu_);
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IoError("wal crashed (simulated power loss)");
  }
  if (append_failed_.load(std::memory_order_relaxed)) {
    return Status::IoError(
        "wal unusable after an earlier append failure (records may be "
        "missing; checkpoint or recover to continue)");
  }
  if (crash_after_ >= 0) {
    if (crash_after_ == 0) {
      // The kill point: this record never (fully) reaches the log, the
      // machine is "off" from here on.
      crash_after_ = -1;
      if (crash_mode_ == CrashMode::kTorn) {
        // A torn final record: a strict prefix hit the disk. Cut inside
        // the payload when there is one so the CRC (not just the length
        // check) is exercised.
        size_t cut = kHeaderSize + payload.size() / 2;
        cut = std::min(cut, rec.size() - 1);
        (void)storage_->Append(std::span(rec.data(), cut));
      }
      crashed_.store(true, std::memory_order_relaxed);
      device_->SetCrashed(true);
      return Status::IoError("wal crashed (simulated power loss)");
    }
    crash_after_--;
  }
  Status s = storage_->Append(rec);
  if (!s.ok()) {
    // A real append failure (EIO/ENOSPC) may have lost or torn this
    // record without flipping the simulated-crash flag. The log can no
    // longer be trusted to describe what happened, so latch a sticky
    // failed state: every later append — the commit record above all —
    // fails too, keeping "committed" equivalent to "fully logged".
    append_failed_.store(true, std::memory_order_relaxed);
    return s;
  }
  append_lsn_.fetch_add(1, std::memory_order_release);
  records_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::LogPageImage(uint64_t txn, PageId id,
                         std::span<const uint8_t> image) {
  WalEncoder enc;
  enc.PutU64(id);
  enc.PutBytes(image);
  return AppendRecord(WalRecordType::kPageImage, txn, enc.bytes());
}

Status Wal::LogAlloc(uint64_t txn, PageId id) {
  WalEncoder enc;
  enc.PutU64(id);
  return AppendRecord(WalRecordType::kAlloc, txn, enc.bytes());
}

Status Wal::LogFree(uint64_t txn, PageId id, std::span<const uint8_t> image) {
  WalEncoder enc;
  enc.PutU64(id);
  enc.PutU16(image.empty() ? 0 : 1);
  enc.PutBytes(image);
  return AppendRecord(WalRecordType::kFree, txn, enc.bytes());
}

Wal::MetaSnapshot Wal::CollectMetas() {
  MetaSnapshot snap;
  // The ticket is taken BEFORE any provider runs; mutators complete their
  // state change before their own commit starts collecting (and thus
  // before it takes its ticket). So for any acknowledged mutation, every
  // snapshot with a >= ticket was collected after the mutation and — with
  // internally latched providers — contains it. Recovery keeps the
  // max-ticket snapshot, which therefore contains every acknowledged
  // mutation, no matter how racing commit records interleave in the log.
  // (Holding a lock across collect+append would give the same guarantee
  // via log order, but providers take structure latches that are held
  // around record appends — a lock-order inversion.)
  snap.ticket = meta_clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  std::vector<std::pair<std::string, MetaProvider>> providers;
  {
    std::lock_guard lock(meta_mu_);
    providers.assign(meta_providers_.begin(), meta_providers_.end());
  }
  snap.entries.reserve(providers.size());
  for (auto& [key, fn] : providers) {
    snap.entries.emplace_back(key, fn());
  }
  return snap;
}

void Wal::EncodeMetas(WalEncoder* enc, const MetaSnapshot& snap) {
  enc->PutU64(snap.ticket);
  enc->PutU32(static_cast<uint32_t>(snap.entries.size()));
  for (const auto& [key, bytes] : snap.entries) {
    enc->PutU16(static_cast<uint16_t>(key.size()));
    enc->PutBytes(std::span(reinterpret_cast<const uint8_t*>(key.data()),
                            key.size()));
    enc->PutBlob(bytes);
  }
}

Status Wal::CommitTxn(uint64_t txn) {
  WalEncoder enc;
  EncodeMetas(&enc, CollectMetas());
  CCIDX_RETURN_IF_ERROR(AppendRecord(WalRecordType::kCommit, txn,
                                     enc.bytes()));
  CCIDX_RETURN_IF_ERROR(GroupSync(append_lsn_.load(std::memory_order_acquire)));
  commits_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::AbortTxn(uint64_t txn) {
  return AppendRecord(WalRecordType::kAbort, txn, {});
}

Status Wal::SyncBeforeData() {
  uint64_t appended = append_lsn_.load(std::memory_order_acquire);
  if (synced_lsn_relaxed_.load(std::memory_order_acquire) >= appended) {
    return Status::OK();
  }
  return GroupSync(appended);
}

Status Wal::GroupSync(uint64_t lsn) {
  std::unique_lock lock(sync_mu_);
  for (;;) {
    if (synced_lsn_ >= lsn) {
      // Another committer's sync already covered our records.
      group_follows_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    sync_cv_.wait(lock);
  }
  sync_in_progress_ = true;
  // Sync everything appended so far — later appends ride along for free,
  // and their committers become followers.
  uint64_t target = append_lsn_.load(std::memory_order_acquire);
  lock.unlock();
  Status s = storage_->Sync();
  lock.lock();
  sync_in_progress_ = false;
  if (s.ok()) {
    synced_lsn_ = std::max(synced_lsn_, target);
    synced_lsn_relaxed_.store(synced_lsn_, std::memory_order_release);
    syncs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A failed fdatasync leaves the kernel's dirty state unknowable
    // (writeback may have been dropped), so the log's durable contents
    // are too: poison the wal the same way a failed append does.
    append_failed_.store(true, std::memory_order_relaxed);
  }
  sync_cv_.notify_all();
  return s;
}

void Wal::SetMetaProvider(const std::string& key, MetaProvider fn) {
  std::lock_guard lock(meta_mu_);
  if (fn) {
    meta_providers_[key] = std::move(fn);
  } else {
    meta_providers_.erase(key);
  }
}

void Wal::SetCrashAfterRecords(int64_t more, CrashMode mode) {
  std::lock_guard lock(append_mu_);
  crash_after_ = more;
  crash_mode_ = mode;
}

Status Wal::ReadRecords(std::vector<WalRecord>* out, bool* torn_tail) {
  std::vector<uint8_t> log;
  CCIDX_RETURN_IF_ERROR(storage_->ReadAll(&log));
  bool torn = false;
  *out = ParseLog(log, &torn);
  if (torn_tail != nullptr) *torn_tail = torn;
  return Status::OK();
}

Status Wal::RewriteAsCheckpoint(const MetaSnapshot& metas) {
  BlockDevice::AllocationSnapshot snap = device_->SnapshotAllocation();
  WalEncoder enc;
  enc.PutU64(snap.total_pages);
  enc.PutU64(snap.freed.size());
  // vector<bool> bit-packed by hand (one byte per 8 pages).
  std::vector<uint8_t> bits((snap.freed.size() + 7) / 8, 0);
  for (size_t i = 0; i < snap.freed.size(); ++i) {
    if (snap.freed[i]) bits[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  enc.PutBytes(bits);
  EncodeMetas(&enc, metas);
  std::vector<uint8_t> rec =
      EncodeRecord(WalRecordType::kCheckpoint, 0, enc.bytes());

  std::lock_guard lock(append_mu_);
  CCIDX_RETURN_IF_ERROR(storage_->Reset(rec));
  CCIDX_RETURN_IF_ERROR(storage_->Sync());
  // The whole log was just rewritten from live in-memory state and made
  // durable, so an earlier append failure (lost/torn record) is moot.
  append_failed_.store(false, std::memory_order_relaxed);
  uint64_t lsn = append_lsn_.fetch_add(1, std::memory_order_release) + 1;
  records_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard slock(sync_mu_);
    synced_lsn_ = std::max(synced_lsn_, lsn);
    synced_lsn_relaxed_.store(synced_lsn_, std::memory_order_release);
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::Checkpoint(Pager* pager) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IoError("wal crashed (simulated power loss)");
  }
  // Callers are quiesced (epoch-gate write side / startup / shutdown), so
  // a whole-pool flush is race-free here.
  if (pager != nullptr) {
    CCIDX_RETURN_IF_ERROR(pager->Flush());
  }
  CCIDX_RETURN_IF_ERROR(device_->SyncData());
  return RewriteAsCheckpoint(CollectMetas());
}

Result<Wal::RecoveryInfo> Wal::Recover(Pager* pager) {
  RecoveryInfo info;

  // 1. The pre-crash pool is volatile state: discard it (dirty frames and
  //    all), then turn the "machine" back on.
  if (pager != nullptr) {
    CCIDX_RETURN_IF_ERROR(pager->DiscardCache());
  }
  {
    std::lock_guard lock(append_mu_);
    crash_after_ = -1;
    crashed_.store(false, std::memory_order_relaxed);
    append_failed_.store(false, std::memory_order_relaxed);
  }
  device_->SetCrashed(false);

  // 2. Parse the log; a torn tail truncates it (torn records were never
  //    acknowledged, so losing them is correct).
  std::vector<uint8_t> log;
  CCIDX_RETURN_IF_ERROR(storage_->ReadAll(&log));
  std::vector<WalRecord> records = ParseLog(log, &info.torn_tail);
  info.records_scanned = records.size();
  if (records.empty() ||
      records.front().type != WalRecordType::kCheckpoint) {
    return Status::Corruption(
        "wal log does not start with a checkpoint record");
  }

  // 3. Base state from the checkpoint record. Meta freshness is decided
  //    by per-key collection tickets, not log position: a commit record
  //    later in the log may carry a snapshot collected earlier (racing
  //    committers), and restoring it would silently drop an acknowledged
  //    buffer-only update. Max-ticket-wins is immune to that interleaving
  //    (see CollectMetas).
  BlockDevice::AllocationSnapshot snap;
  std::unordered_map<std::string, uint64_t> meta_tickets;
  {
    WalDecoder dec(records.front().payload);
    snap.total_pages = dec.GetU64();
    uint64_t nbits = dec.GetU64();
    // The bitmap must fit the payload before anything is sized from it
    // (a CRC-valid record can still carry a writer bug's counts).
    if (!dec.ok() || nbits != snap.total_pages ||
        nbits / 8 + (nbits % 8 != 0) > dec.remaining()) {
      return Status::Corruption("wal checkpoint record is malformed");
    }
    std::span<const uint8_t> bits = dec.GetBytes((nbits + 7) / 8);
    snap.freed.resize(nbits);
    for (uint64_t i = 0; i < nbits; ++i) {
      snap.freed[i] = (bits[i / 8] >> (i % 8)) & 1u;
    }
    uint64_t ticket = dec.GetU64();
    uint32_t n = dec.GetU32();
    for (uint32_t i = 0; i < n; ++i) {
      uint16_t klen = dec.GetU16();
      std::span<const uint8_t> key = dec.GetBytes(klen);
      std::span<const uint8_t> blob = dec.GetBlob();
      std::string k(key.begin(), key.end());
      info.metas[k] = std::vector<uint8_t>(blob.begin(), blob.end());
      meta_tickets[k] = ticket;
    }
    if (!dec.ok()) {
      return Status::Corruption("wal checkpoint record is malformed");
    }
  }

  // 4. Resolved-txn set: committed, plus in-process aborts whose surviving
  //    state was forced before the abort record (records past the torn
  //    tail resolve nothing).
  std::unordered_set<uint64_t> resolved;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kCommit) {
      resolved.insert(r.txn);
      info.committed_txns++;
    } else if (r.type == WalRecordType::kAbort) {
      resolved.insert(r.txn);
    }
  }

  // 5. Forward-replay resolved allocation changes onto the snapshot (both
  //    outcomes applied their alloc/free effects in process), and merge
  //    commit-metas by collection ticket (freshest snapshot wins per key).
  //    Past the checkpoint pages are allocated inside txns, each logging
  //    one kAlloc, so the device holds at most the checkpoint's page
  //    count plus the log's kAlloc count. A larger id is a writer bug,
  //    and sizing the snapshot from it would allocate what it asks.
  const uint64_t alloc_limit =
      snap.total_pages +
      static_cast<uint64_t>(std::count_if(
          records.begin(), records.end(), [](const WalRecord& r) {
            return r.type == WalRecordType::kAlloc;
          }));
  for (const WalRecord& r : records) {
    if (!resolved.contains(r.txn)) continue;
    WalDecoder dec(r.payload);
    switch (r.type) {
      case WalRecordType::kAlloc: {
        PageId id = dec.GetU64();
        if (!dec.ok() || id >= alloc_limit) {
          return Status::Corruption("bad wal alloc record");
        }
        if (id >= snap.freed.size()) {
          snap.freed.resize(id + 1, true);
          snap.total_pages = snap.freed.size();
        }
        snap.freed[id] = false;
        break;
      }
      case WalRecordType::kFree: {
        PageId id = dec.GetU64();
        if (!dec.ok() || id >= snap.freed.size()) {
          return Status::Corruption("bad wal free record");
        }
        snap.freed[id] = true;
        break;
      }
      case WalRecordType::kCommit: {
        uint64_t ticket = dec.GetU64();
        uint32_t n = dec.GetU32();
        for (uint32_t i = 0; i < n; ++i) {
          uint16_t klen = dec.GetU16();
          std::span<const uint8_t> key = dec.GetBytes(klen);
          std::span<const uint8_t> blob = dec.GetBlob();
          if (!dec.ok()) return Status::Corruption("bad wal commit record");
          std::string k(key.begin(), key.end());
          uint64_t& best = meta_tickets[k];  // absent key -> 0: first wins
          if (ticket >= best) {
            best = ticket;
            info.metas[k] = std::vector<uint8_t>(blob.begin(), blob.end());
          }
        }
        break;
      }
      default:
        break;
    }
  }
  device_->RestoreAllocation(snap);

  // 6. Undo: restore before-images of *unresolved* (in-flight at crash)
  //    records in reverse log order, landing every page on its last
  //    resolved content. Pages dead in the restored allocation state are
  //    skipped — their content is unreachable (and zeroed on reallocation).
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const WalRecord& r = *it;
    if (resolved.contains(r.txn)) continue;
    std::span<const uint8_t> image;
    PageId id = kInvalidPageId;
    if (r.type == WalRecordType::kPageImage) {
      WalDecoder dec(r.payload);
      id = dec.GetU64();
      image = dec.GetBytes(device_->page_size());
      if (!dec.ok()) return Status::Corruption("bad wal image record");
    } else if (r.type == WalRecordType::kFree) {
      WalDecoder dec(r.payload);
      id = dec.GetU64();
      if (dec.GetU16() != 0) {
        image = dec.GetBytes(device_->page_size());
      }
      if (!dec.ok()) return Status::Corruption("bad wal free record");
    } else {
      continue;
    }
    if (image.empty() || !device_->is_live(id)) continue;
    CCIDX_RETURN_IF_ERROR(device_->Write(id, image));
    info.images_restored++;
  }

  // 7. Truncate to a fresh checkpoint of the recovered state so a second
  //    crash replays to exactly the same place. The recovered metas (not
  //    the live providers, which still describe pre-crash in-memory
  //    structures) are what goes in.
  MetaSnapshot metas;
  metas.ticket = meta_clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  metas.entries.assign(info.metas.begin(), info.metas.end());
  CCIDX_RETURN_IF_ERROR(device_->SyncData());
  CCIDX_RETURN_IF_ERROR(RewriteAsCheckpoint(metas));
  return info;
}

}  // namespace ccidx
