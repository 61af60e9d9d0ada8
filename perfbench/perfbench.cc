// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny]
//
// Workloads (BENCHMARK.json and perfbench/README.md say why each exists):
//   serve-write  Server, 1 CPU, windows of 16 requests timed in CPU time,
//                WAL + checkpoints; ends with a simulated crash,
//                Wal::Recover and a check that every acknowledged write
//                survived
//   parallel-rw  every CPU, no server: alternating 2048-op update and
//                query batches through UpdateExecutor / QueryExecutor
//   cold-scan    Server, 1 CPU, 4 pipelined requests, 50 us device reads,
//                pool ~1/16 of the fixture
//
// Each run: build the fixture three times (setup_s is the median), run a
// fixed, seeded count phase (the exact per-op I/O counts), run the timed
// phase (throughput, latency), then check sampled answers against the
// testutil oracles. With --trace 1 the timed phase is split in two halves,
// untraced and traced, and the run adds the per-layer replay. Every line
// before the last is informational; the last line is
//   RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..},
//           "problems":[..],"meta":{..}}
// which perfbench/run.py turns into the benchmark's result line.

#include <sys/prctl.h>

#include <cinttypes>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>

#include "ccidx/dynamic/maintenance.h"
#include "ccidx/io/wal.h"
#include "ccidx/query/executor.h"
#include "ccidx/query/update_executor.h"
#include "ccidx/serve/codec.h"
#include "ccidx/simd/simd.h"
#include "fixture.h"
#include "harness.h"
#include "serving.h"

namespace perfbench {
namespace {

using ccidx::IoStats;
using ccidx::Pager;
using ccidx::Status;
using ccidx::Wal;
using ccidx::serve::LoopbackConnection;
using ccidx::serve::Server;
using ccidx::serve::ServerOptions;
using ccidx::serve::UpdateOp;
using ccidx::serve::WireStatus;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

/// Everything a run reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  Metrics m;
  std::map<std::string, std::string> meta;

  void Fail(uint64_t n, const std::string& what) {
    failed += n;
    if (problems.size() < 20) problems.push_back(what);
  }
};

constexpr int kSetups = 3;
constexpr size_t kFamilyProbes = 256;  // direct calls per family op

/// Answers checked per run (seeded sample, capped so checking stays a
/// small share of the run).
constexpr size_t kMaxChecks = 400;

bool Sampled(uint64_t seed, uint64_t seq, uint64_t one_in) {
  return Mix64(seed * 0x9e37 + seq) % one_in == 0;
}

/// Builds the fixture kSetups times and keeps the last; setup_s is the
/// median build time.
std::unique_ptr<Fixture> SetUp(const FixtureSpec& spec, uint64_t seed,
                               Outcome* out) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    fx = BuildFixture(spec, seed);
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  out->m.Set("setup_s", Median(times), "s", times.size());
  for (const auto& [family, s] : fx->build_s) {
    out->m.Set("build." + family + ".s", s, "s", 1);
  }
  out->m.Set("build.ios_over_sort_bound", Ratio(fx->build_ios, fx->sort_bound),
             "ratio", 1);
  out->meta["pool_pages"] = std::to_string(spec.pool_pages);
  out->meta["fixture_pages"] = std::to_string(fx->device->live_pages());
  return fx;
}

/// Per-op device, pool and WAL counters over a fixed operation sequence.
struct CountWindow {
  IoStats io;
  uint64_t prefetches = 0;
  uint64_t wal_records = 0, wal_commits = 0, wal_syncs = 0, wal_follows = 0;
  double wal_bytes = 0;  // bytes the WAL wrote (appends + checkpoint records)
  double ops = 0, update_ops = 0;
};

void ReportCounts(const CountWindow& c, double page_size, Outcome* out) {
  const double ops = std::max(1.0, c.ops);
  const IoStats& io = c.io;
  out->m.Set("ios_per_op", io.TotalIos() / ops, "1/op", c.ops);
  out->m.Set("io.device.reads_per_op", io.device_reads / ops, "1/op", c.ops);
  out->m.Set("io.device.writes_per_op", io.device_writes / ops, "1/op", c.ops);
  out->m.Set("io.device.reads_per_batch",
             Ratio(io.device_reads, io.read_batches), "pages", io.read_batches);
  out->m.Set("io.pager.hit_ratio", Ratio(io.cache_hits, io.cache_hits + io.cache_misses),
             "ratio", io.cache_hits + io.cache_misses);
  out->m.Set("io.pager.prefetch_issued_per_op", c.prefetches / ops, "1/op",
             c.ops);
  const double spec_reads =
      io.device_reads > io.cache_misses ? io.device_reads - io.cache_misses : 0;
  out->m.Set("io.pager.spec_waste", Ratio(spec_reads, io.device_reads),
             "ratio", io.device_reads);
  if (c.update_ops > 0) {
    out->m.Set("write_amp",
               (io.device_writes * page_size + c.wal_bytes) /
                   (c.update_ops * kRecordBytes),
               "ratio", c.update_ops);
    out->m.Set("io.wal.records_per_update", c.wal_records / c.update_ops,
               "1/op", c.update_ops);
    out->m.Set("io.wal.bytes_per_update", c.wal_bytes / c.update_ops,
               "bytes", c.update_ops);
    out->m.Set("io.wal.syncs_per_commit", Ratio(c.wal_syncs, c.wal_commits),
               "ratio", c.wal_commits);
    out->m.Set("io.wal.group_follow_frac", Ratio(c.wal_follows, c.wal_commits),
               "ratio", c.wal_commits);
  }
}

/// Counts the WAL bytes written across checkpoints: appended records plus
/// every checkpoint record the log is rewritten to.
class WalBytes {
 public:
  explicit WalBytes(const Wal* wal) : wal_(wal), base_(wal->log_bytes()) {}
  /// Call right before and right after a checkpoint while no writer runs.
  void BeforeCheckpoint() { written_ += wal_->log_bytes() - base_; }
  void AfterCheckpoint() {
    base_ = wal_->log_bytes();
    written_ += base_;
  }
  double Total() const { return written_ + (wal_->log_bytes() - base_); }

 private:
  const Wal* wal_;
  double base_;
  double written_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer probes shared by the workloads (traced runs only)
// ---------------------------------------------------------------------------

/// Times direct family calls on the workload's own request stream:
/// <family>.<op>.us (median) and <family>.<op>.pins (mean pins per call,
/// from Pager IoStats diffs).
void ProbeQueries(const Fixture& fx, const BPlusTree* btree,
                  const std::function<Sent()>& next, Outcome* out) {
  std::map<Op, std::vector<Sent>> by_op;
  for (int i = 0; i < 64 * static_cast<int>(kFamilyProbes); ++i) {
    Sent s = next();
    if (s.op == Op::kUpdate || s.op == Op::kWriteRangeCount) continue;
    auto& v = by_op[s.op];
    if (v.size() < kFamilyProbes) v.push_back(std::move(s));
  }
  for (const auto& [op, sent] : by_op) {
    std::vector<double> us;
    double pins = 0;
    for (const Sent& s : sent) {
      Response resp;
      const IoStats before = fx.pager->CombinedStats();
      const Clock::time_point t0 = Clock::now();
      Status st = ExecuteDirect(fx, btree, s.req, &resp);
      const Clock::time_point t1 = Clock::now();
      MustOk(st, "family probe");
      us.push_back(MicrosBetween(t0, t1));
      pins += fx.pager->CombinedStats().pin_requests - before.pin_requests;
    }
    out->m.Set(std::string(OpName(op)) + ".us", Median(us), "us", us.size());
    out->m.Set(std::string(OpName(op)) + ".pins", pins / sent.size(), "1/op",
               sent.size());
  }
}

/// Times `n` calls of `call(i)` one by one: median us and mean pins.
template <typename Call>
void ProbeCalls(Pager* pager, const std::string& name, size_t n, Call&& call,
                Outcome* out) {
  std::vector<double> us;
  double pins = 0;
  for (size_t i = 0; i < n; ++i) {
    const IoStats before = pager->CombinedStats();
    const Clock::time_point t0 = Clock::now();
    Status st = call(i);
    const Clock::time_point t1 = Clock::now();
    MustOk(st, name.c_str());
    us.push_back(MicrosBetween(t0, t1));
    pins += pager->CombinedStats().pin_requests - before.pin_requests;
  }
  out->m.Set(name + ".us", Median(us), "us", n);
  out->m.Set(name + ".pins", pins / n, "1/op", n);
}

/// B+-tree insert, then delete, of kFamilyProbes fresh keys from `base` up.
void ProbeBtreeUpdates(Pager* pager, BPlusTree* bt, int64_t base,
                       Outcome* out) {
  ProbeCalls(pager, "bptree.insert", kFamilyProbes, [&](size_t i) {
    return bt->Insert(base + static_cast<int64_t>(i), i, 0);
  }, out);
  ProbeCalls(pager, "bptree.delete", kFamilyProbes, [&](size_t i) {
    bool found = false;
    Status s = bt->Delete(base + static_cast<int64_t>(i), i, &found);
    if (s.ok() && !found) return Status::NotFound("probe key missing");
    return s;
  }, out);
}

/// simd::Kernels().filter_3sided over page-sized spans of fixture points.
void ProbeSimd(const std::vector<Point>& pts, uint64_t seed, Outcome* out) {
  if (pts.size() < kB) return;
  const auto& k = ccidx::simd::Kernels();
  Rng rng(seed ^ 0x51d);
  std::vector<uint32_t> idx(kB);
  std::vector<double> ns_per_rec;
  uint64_t matched = 0;
  constexpr int kCalls = 256;
  for (int g = 0; g < 64; ++g) {
    std::vector<std::array<Coord, 3>> qs(kCalls);
    std::vector<size_t> at(kCalls);
    for (int c = 0; c < kCalls; ++c) {
      const Coord xlo = rng.Uniform(0, kDomain / 2);
      qs[c] = {xlo, xlo + kDomain / 4, rng.Uniform(0, kDomain - 1)};
      at[c] = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(pts.size() - kB)));
    }
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < kCalls; ++c) {
      matched += k.filter_3sided(pts.data() + at[c], kB, qs[c][0], qs[c][1],
                                 qs[c][2], idx.data());
    }
    ns_per_rec.push_back(NanosBetween(t0, Clock::now()) / (kCalls * kB));
  }
  out->m.Set("simd.filter_3sided.ns_per_rec", Median(ns_per_rec), "ns",
             ns_per_rec.size());
  out->meta["simd_probe_matched"] = std::to_string(matched);
}

/// Pin cost on a resident page (ns) and on a page the pool must fetch
/// (us), pinning each structure's root. Drops the pool: run last.
void ProbePins(Pager* pager, const std::vector<ccidx::PageId>& roots,
               Outcome* out) {
  std::vector<double> hit_ns, miss_us;
  for (int g = 0; g < 32; ++g) {
    for (ccidx::PageId root : roots) {
      MustOk(pager->DropCache(), "drop cache");
      Clock::time_point t0 = Clock::now();
      auto miss = pager->Pin(root);
      miss_us.push_back(MicrosBetween(t0, Clock::now()));
      MustOk(miss.status(), "pin miss");
      miss->Release();
      t0 = Clock::now();
      for (int i = 0; i < 256; ++i) {
        auto hit = pager->Pin(root);
        if (!hit.ok()) MustOk(hit.status(), "pin hit");
      }
      hit_ns.push_back(NanosBetween(t0, Clock::now()) / 256);
    }
  }
  out->m.Set("io.pager.pin_hit_ns", Median(hit_ns), "ns", hit_ns.size());
  out->m.Set("io.pager.pin_miss_us", Median(miss_us), "us", miss_us.size());
}

/// Appends the p50 and p99 of the per-worker latency samples of one
/// batch, and clears them for the next.
void CollectOpLatencies(std::vector<std::vector<double>>* per_worker,
                        std::vector<double>* p50, std::vector<double>* p99) {
  std::vector<double> all;
  for (auto& v : *per_worker) all.insert(all.end(), v.begin(), v.end()), v.clear();
  p50->push_back(Quantile(all, 0.50));
  p99->push_back(Quantile(all, 0.99));
}

double QueueDepthP99(const std::vector<uint64_t>& hist) {
  const uint64_t total = std::accumulate(hist.begin(), hist.end(), uint64_t{0});
  if (total == 0) return 0;
  uint64_t seen = 0;
  for (size_t i = 0; i < hist.size(); ++i) {
    seen += hist[i];
    if (seen * 100 >= total * 99) return static_cast<double>((uint64_t{2} << i) - 1);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// serve-write's update stream: 8-op B+-tree batches of fresh keys above
/// the bulk-loaded range, one op in four a delete of a key inserted
/// earlier; every update op is logged in send order for the checks.
class WriteMix {
 public:
  WriteMix(const Fixture& fx, ReadMix* reads, uint64_t seed)
      : base_(2 * fx.bt_n + 2), reads_(reads), rng_(seed ^ 0x3717) {}

  Sent Next() {
    Sent s;
    s.ops_at_send = log_.size();
    if (n_++ % 2 == 0) {
      s.op = Op::kUpdate;
      s.req.type = RequestType::kUpdateBatch;
      for (int j = 0; j < 8; ++j) {
        UpdateOp u;
        if (op_no_++ % 4 == 3 && !live_.empty()) {
          const size_t at = rng_.Next() % live_.size();
          const uint64_t f = live_[at];
          live_[at] = live_.back();
          live_.pop_back();
          u = {UpdateOp::Kind::kDelete, base_ + static_cast<int64_t>(f), f, 0};
          log_.push_back({f, -1});
        } else {
          const uint64_t f = fresh_++;
          live_.push_back(f);
          u = {UpdateOp::Kind::kInsert, base_ + static_cast<int64_t>(f), f, 0};
          log_.push_back({f, +1});
        }
        s.req.updates.push_back(u);
      }
    } else if (rng_.Next() % 2 == 0) {
      const int64_t r = rng_.Uniform(0, std::max<int64_t>(0, static_cast<int64_t>(fresh_) - 256));
      s.op = Op::kWriteRangeCount;
      s.req.type = RequestType::kBtreeRange;
      s.req.mode = ResultMode::kCount;
      s.req.args = {base_ + r, base_ + r + 255, 0};
    } else {
      s.req = reads_->ServeRead(reads_seq_++, &s.op);
    }
    return s;
  }

  /// Checks write-region counts: a count sees every update sent before it
  /// and possibly updates sent after it that shared its dispatch batch,
  /// never later ones. Returns the number of answers outside those bounds.
  uint64_t CheckWriteCounts(std::vector<Checked> checks) const {
    std::sort(checks.begin(), checks.end(), [](const Checked& a, const Checked& b) {
      return a.sent.ops_at_send < b.sent.ops_at_send;
    });
    std::vector<int64_t> fen(fresh_ + 1, 0);
    auto add = [&](uint64_t f, int64_t d) {
      for (uint64_t i = f + 1; i <= fresh_; i += i & (~i + 1)) fen[i] += d;
    };
    auto prefix = [&](int64_t f) {  // live count of fresh indices < f
      int64_t s = 0;
      for (int64_t i = std::min<int64_t>(f, fresh_); i > 0; i -= i & -i) s += fen[i];
      return s;
    };
    uint64_t bad = 0;
    size_t applied = 0;
    for (const Checked& c : checks) {
      while (applied < c.sent.ops_at_send) {
        add(log_[applied].first, log_[applied].second);
        ++applied;
      }
      const int64_t lo = c.sent.req.args[0] - base_, hi = c.sent.req.args[1] - base_;
      const int64_t at_send = prefix(hi + 1) - prefix(lo);
      int64_t may_add = 0, may_remove = 0;
      for (uint64_t i = c.sent.ops_at_send; i < c.ops_at_recv; ++i) {
        const auto [f, d] = log_[i];
        if (static_cast<int64_t>(f) < lo || static_cast<int64_t>(f) > hi) continue;
        (d > 0 ? may_add : may_remove) += 1;
      }
      const int64_t got = static_cast<int64_t>(c.resp.count);
      if (c.resp.status != WireStatus::kOk || got < at_send - may_remove ||
          got > at_send + may_add) {
        ++bad;
      }
    }
    return bad;
  }

  /// The write-region entries every acknowledged update leaves behind.
  std::vector<BtEntry> ExpectedWrites() const {
    std::vector<uint64_t> live = live_;
    std::sort(live.begin(), live.end());
    std::vector<BtEntry> out;
    for (uint64_t f : live) out.push_back({base_ + static_cast<int64_t>(f), f, 0});
    return out;
  }

  int64_t base() const { return base_; }
  uint64_t fresh() const { return fresh_; }
  uint64_t ops_sent() const { return log_.size(); }

 private:
  const int64_t base_;
  ReadMix* reads_;
  Rng rng_;
  uint64_t n_ = 0, op_no_ = 0, reads_seq_ = 0, fresh_ = 0;
  std::vector<uint64_t> live_;
  std::vector<std::pair<uint64_t, int>> log_;  // fresh index, +1/-1
};

/// The fixed recovery segment: 8-op batches on odd keys 2g+1 inside the
/// bulk-loaded range (untouched by the timed phase), op g deleting the
/// insert of op g-3 when g % 4 == 3.
Sent SegmentRequest(uint64_t k) {
  Sent s;
  s.req.type = RequestType::kUpdateBatch;
  for (uint64_t j = 0; j < 8; ++j) {
    const uint64_t g = k * 8 + j;
    const uint64_t t = g % 4 == 3 ? g - 3 : g;
    s.req.updates.push_back({g % 4 == 3 ? UpdateOp::Kind::kDelete
                                        : UpdateOp::Kind::kInsert,
                             static_cast<int64_t>(2 * t + 1), t, 0});
  }
  return s;
}

/// Serving counters summed over every server a run starts.
struct ServeTotals {
  uint64_t batches = 0, batch_sum = 0, update_ops = 0, admitted = 0;
  uint64_t shed = 0, deadline_dropped = 0, refused = 0;
  uint64_t checkpoints = 0, checkpoints_failed = 0;
  std::vector<uint64_t> depth_hist;
  ccidx::WaitHistogram reader_wait, writer_wait;

  static void Merge(ccidx::WaitHistogram* into, const ccidx::WaitHistogram& h) {
    for (size_t i = 0; i < h.buckets.size(); ++i) into->buckets[i] += h.buckets[i];
    into->count += h.count;
    into->total_ns += h.total_ns;
    into->max_ns = std::max(into->max_ns, h.max_ns);
  }

  void Add(const ccidx::serve::ServerStats& s, const ccidx::WaitHistogram& writers,
           const ccidx::MaintenanceThread& m) {
    batches += s.dispatch.batches;
    batch_sum += s.dispatch.batch_size_sum;
    update_ops += s.dispatch.update_ops;
    admitted += s.admitted;
    shed += s.shed;
    deadline_dropped += s.deadline_dropped;
    refused += s.no_credit + s.bad_frames;
    depth_hist.resize(std::max(depth_hist.size(), s.queue_depth_hist.size()));
    for (size_t i = 0; i < s.queue_depth_hist.size(); ++i) depth_hist[i] += s.queue_depth_hist[i];
    Merge(&reader_wait, s.reader_gate_wait);
    Merge(&writer_wait, writers);
    checkpoints += m.checkpoints_taken();
    checkpoints_failed += m.checkpoints_failed();
  }

  void Report(Outcome* out) const {
    out->m.Set("serve.dispatcher.mean_batch", Ratio(batch_sum, batches), "requests", batches);
    out->m.Set("serve.dispatcher.update_ops_per_batch", Ratio(update_ops, batches), "1/batch", batches);
    out->m.Set("serve.queue.depth_p99", QueueDepthP99(depth_hist), "requests", admitted);
    out->m.Set("serve.queue.shed_frac", Ratio(shed, admitted + shed), "ratio", admitted);
    out->m.Set("serve.queue.deadline_dropped_frac", Ratio(deadline_dropped, admitted), "ratio", admitted);
    if (shed + deadline_dropped + refused > 0) {
      out->Fail(shed + deadline_dropped + refused, "server shed, dropped or refused requests");
    }
    out->m.Set("query.gate.reader_wait_p99_us", reader_wait.PercentileNs(99) / 1e3, "us", reader_wait.count);
    out->m.Set("query.gate.writer_wait_p99_us", writer_wait.PercentileNs(99) / 1e3, "us", writer_wait.count);
    out->m.Set("dynamic.maintenance.checkpoints", static_cast<double>(checkpoints), "count", 1);
    if (checkpoints_failed > 0) out->Fail(checkpoints_failed, "checkpoint failed");
  }
};

/// Per-episode figures of a timed phase.
constexpr int kEpisodes = 40;
/// The episode a serving run reports: the 90th percentile of its
/// episodes' throughputs, the 10th of their latencies.
constexpr double kBestTenth = 0.9;
struct Episodes {
  std::vector<double> ops_per_s, query_p50, query_p99, update_p50, update_p99;
  std::vector<Sent> queries;    // traced: every query, in order
  std::vector<double> call_us;  // traced: Send -> Receive per query
  uint64_t chunks = 0, queries_n = 0, updates = 0;

  void Add(LoopResult r) {
    ops_per_s.push_back(r.ops_per_s);
    query_p50.push_back(Quantile(r.query_us, 0.50));
    query_p99.push_back(Quantile(r.query_us, 0.99));
    if (!r.update_us.empty()) {
      update_p50.push_back(Quantile(r.update_us, 0.50));
      update_p99.push_back(Quantile(r.update_us, 0.99));
    }
    chunks += r.chunks;
    queries_n += r.query_us.size();
    updates += r.update_us.size();
    queries.insert(queries.end(), r.queries.begin(), r.queries.end());
    call_us.insert(call_us.end(), r.call_us.begin(), r.call_us.end());
  }
};

struct ServingDef {
  size_t depth;
  uint64_t count_requests;  // fixed count-phase length
  uint64_t chunk_ops;       // throughput chunk
  uint64_t check_one_in;    // answer-check sampling rate
  bool wal;  // serve-write; else cold-scan
  /// The CPU a windowed workload is pinned to and timed on (ClosedLoop,
  /// CPU time); -1 for a pipelined one timed in wall time.
  int windowed_cpu = -1;
};

/// serve-write and cold-scan.
void RunServing(const Options& opt, const ServingDef& def,
                const FixtureSpec& spec, Outcome* out) {
  std::unique_ptr<Fixture> fx = SetUp(spec, opt.seed, out);
  Pager* pager = fx->pager.get();
  const double page_size = fx->device->page_size();
  ReadMix reads(*fx, opt.seed);
  WriteMix writes(*fx, &reads, opt.seed);
  const bool is_write = def.wal;
  uint64_t seq = 0;
  std::function<Sent()> next = [&] {
    Sent s;
    if (is_write) {
      s = writes.Next();
    } else {
      s.req = reads.ColdScan(&s.op);
    }
    s.seq = seq++;
    return s;
  };

  // --- WAL (serve-write) ---
  // Checkpoints every kCheckpointOps acknowledged update ops, as a
  // MaintenanceThread job on the running server's gate. At this cadence
  // ~3% of the requests wait on one, so query_p99_us and update_p99_us
  // measure checkpoint stalls; at 8192 (~0.7%) the p99 sat on the edge
  // of the stalled requests and jumped between episodes.
  constexpr uint64_t kCheckpointOps = 2048;
  std::unique_ptr<Wal> wal;
  if (def.wal) {
    wal = std::make_unique<Wal>(fx->device.get(), ccidx::MakeMemWalStorage());
    wal->SetMetaProvider("bptree", [&] { return fx->btree->SerializeMeta(); });
    pager->AttachWal(wal.get());
    out->meta["wal_storage"] = wal->storage_name();
    out->meta["wal_flush"] = "force-at-commit, group commit, checkpoint every " +
                             std::to_string(kCheckpointOps) + " acked update ops";
  } else {
    out->meta["wal_storage"] = "none";
  }

  ccidx::serve::ServeTables tables;
  tables.pager = pager;
  tables.metablock = fx->metablock ? &*fx->metablock : nullptr;
  tables.btree = fx->btree ? &*fx->btree : nullptr;
  tables.interval = fx->interval ? &*fx->interval : nullptr;
  tables.three_sided = fx->three_sided ? &*fx->three_sided : nullptr;
  ServerOptions sopts;
  sopts.query_threads = 1;
  sopts.update_threads = 1;
  Tracer off(false, 1);

  uint64_t acked_update_ops = 0;
  uint64_t next_checkpoint = kCheckpointOps;
  std::vector<double> checkpoint_ms;
  std::mutex ckpt_mu;
  std::unique_ptr<WalBytes> wal_bytes;
  ccidx::MaintenanceThread* maint = nullptr;  // the running server's
  auto checkpoint_job = [&] {
    auto job = maint->CheckpointJob(wal.get(), pager);
    return [&, job] {
      const Clock::time_point t0 = Clock::now();
      job();
      std::lock_guard lock(ckpt_mu);
      checkpoint_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    };
  };
  auto run_checkpoint_now = [&] {  // writers drained: exact byte counts
    if (wal_bytes) wal_bytes->BeforeCheckpoint();
    maint->Schedule(checkpoint_job());
    maint->Drain();
    if (wal_bytes) wal_bytes->AfterCheckpoint();
  };

  std::vector<Checked> checks, write_checks;
  uint64_t wrong = 0;
  auto on_response = [&](bool drain_for_checkpoint) {
    return [&, drain_for_checkpoint](const Sent& s, const Response& resp,
                                     bool* drain) {
      if (s.op == Op::kUpdate) {
        acked_update_ops += resp.count;
        if (resp.count != s.req.updates.size()) ++wrong;
        if (def.wal && acked_update_ops >= next_checkpoint) {
          next_checkpoint += kCheckpointOps;
          if (drain_for_checkpoint) {
            *drain = true;
          } else {
            maint->Schedule(checkpoint_job());
          }
        }
        return;
      }
      if (s.op == Op::kWriteRangeCount) {
        if (write_checks.size() < kMaxChecks && Sampled(opt.seed, s.seq, def.check_one_in)) {
          write_checks.push_back({s, resp, writes.ops_sent()});
        }
      } else if (checks.size() < kMaxChecks && Sampled(opt.seed, s.seq, def.check_one_in)) {
        checks.push_back({s, resp, 0});
      }
    };
  };

  // Every phase runs on a freshly started server (an episode). The timed
  // phase is kEpisodes episodes, each taken whole, and reports the
  // episode at the edge of its best tenth (kBestTenth). A shared host's
  // load slows this code by up to ~1.5x for seconds at a time, with every
  // thread getting the same CPU time but doing less in it, so a median
  // over episodes moves with the host's load from run to run, while the
  // best-tenth episode is the unloaded speed whenever a tenth of the run
  // falls in a quiet spell.
  //
  // A windowed episode is timed in CPU time, which also leaves out the
  // time the pinned CPU sat idle. That time is added back per episode:
  // latencies are scaled by, and throughput divided by, (CPU time + idle
  // time) / CPU time, so a change that makes the serving path wait
  // instead of run still shows.
  ServeTotals totals;
  const bool windowed = def.windowed_cpu >= 0;
  double busy_s = 0, idle_s = 0;
  auto episode = [&](const std::function<Sent()>& gen, bool drain_for_checkpoint,
                     uint64_t max_requests, double seconds, Tracer* tr) {
    Server server(tables, sopts);
    server.Start();
    LoopbackConnection conn(&server);
    ccidx::MaintenanceThread m(server.query_executor()->gate());
    maint = &m;
    ClosedLoop loop(&conn, def.depth, windowed);
    const double idle0 = windowed ? CpuIdleSeconds(def.windowed_cpu) : 0;
    LoopResult r = loop.Run(gen, on_response(drain_for_checkpoint), run_checkpoint_now,
                            max_requests, seconds, def.chunk_ops, tr);
    if (windowed && r.seconds > 0) {
      const double idle = std::max(0.0, CpuIdleSeconds(def.windowed_cpu) - idle0);
      const double f = (r.seconds + idle) / r.seconds;
      for (auto* v : {&r.query_us, &r.update_us, &r.call_us}) {
        for (double& us : *v) us *= f;
      }
      r.ops_per_s /= f;
      busy_s += r.seconds;
      idle_s += idle;
    }
    server.Stop();
    m.Drain();
    totals.Add(server.stats(), server.query_executor()->gate()->writer_wait_histogram(), m);
    maint = nullptr;
    out->attempted += r.ops;
    if (r.not_ok > 0) out->Fail(r.not_ok, "responses not ok");
    return r;
  };

  // --- count phase: fixed seeded sequence, drained checkpoints ---
  CountWindow cw;
  if (wal) wal_bytes = std::make_unique<WalBytes>(wal.get());
  {
    const IoStats io0 = pager->CombinedStats();
    const uint64_t pf0 = pager->prefetches_issued();
    const uint64_t r0 = wal ? wal->records() : 0, c0 = wal ? wal->commits() : 0,
                   s0 = wal ? wal->syncs() : 0, g0 = wal ? wal->group_follows() : 0;
    LoopResult r = episode(next, true, def.count_requests, 0, &off);
    cw.io = pager->CombinedStats() - io0;
    cw.prefetches = pager->prefetches_issued() - pf0;
    cw.ops = static_cast<double>(r.ops);
    cw.update_ops = static_cast<double>(r.update_ops);
    if (wal) {
      cw.wal_records = wal->records() - r0;
      cw.wal_commits = wal->commits() - c0;
      cw.wal_syncs = wal->syncs() - s0;
      cw.wal_follows = wal->group_follows() - g0;
      cw.wal_bytes = wal_bytes->Total();
    }
  }
  ReportCounts(cw, page_size, out);
  out->meta["count_phase_requests"] = std::to_string(def.count_requests);

  // --- timed episodes ---
  const double timed_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  auto timed_phase = [&](Tracer* tr, Episodes* eps) {
    const uint64_t b0 = totals.batches, s0 = totals.batch_sum;
    for (int e = 0; e < kEpisodes; ++e) {
      eps->Add(episode(next, false, 0, timed_s / kEpisodes, tr));
    }
    return Ratio(totals.batch_sum - s0, totals.batches - b0);
  };
  Episodes timed;
  const double untraced_batch = timed_phase(&off, &timed);
  out->m.Set("ops_per_s", Quantile(timed.ops_per_s, kBestTenth), "1/s", timed.chunks);
  out->m.Set("query_p50_us", Quantile(timed.query_p50, 1 - kBestTenth), "us", timed.queries_n);
  out->m.Set("query_p99_us", Quantile(timed.query_p99, 1 - kBestTenth), "us", timed.queries_n);
  if (timed.updates > 0) {
    out->m.Set("update_p50_us", Quantile(timed.update_p50, 1 - kBestTenth), "us", timed.updates);
    out->m.Set("update_p99_us", Quantile(timed.update_p99, 1 - kBestTenth), "us", timed.updates);
  }
  out->meta["episodes"] = std::to_string(kEpisodes);
  out->meta["clock"] = windowed ? "process CPU time + idle time of CPU " +
                                      std::to_string(def.windowed_cpu)
                                : "wall";

  Episodes traced;
  Tracer tracer(opt.trace, 2);
  if (opt.trace) {
    timed_phase(&tracer, &traced);
    out->m.Set("trace.overhead_frac",
               1.0 - Ratio(Quantile(traced.ops_per_s, kBestTenth),
                           Quantile(timed.ops_per_s, kBestTenth)),
               "ratio", traced.chunks);
  }

  // --- recovery segment, simulated crash, recovery (serve-write) ---
  const BPlusTree* final_tree = fx->btree ? &*fx->btree : nullptr;
  std::optional<BPlusTree> recovered;
  constexpr uint64_t kSegmentRequests = 64;
  if (def.wal) {
    uint64_t k = 0;
    episode([&] { return SegmentRequest(k++); }, false, kSegmentRequests, 0, &off);
  }

  if (def.wal) {
    // The pool is volatile: Recover discards it, so only what the commit
    // protocol forced survives.
    const double log_bytes = static_cast<double>(wal->log_bytes());
    const Clock::time_point t0 = Clock::now();
    auto info = wal->Recover(pager);
    const Clock::time_point t1 = Clock::now();
    if (!info.ok()) {
      out->Fail(1, "Wal::Recover: " + info.status().ToString());
    } else {
      auto it = info->metas.find("bptree");
      if (it == info->metas.end()) {
        out->Fail(1, "recovered metas lack the B+-tree");
      } else {
        auto bt = BPlusTree::AttachMeta(pager, it->second);
        if (!bt.ok()) {
          out->Fail(1, "AttachMeta: " + bt.status().ToString());
        } else {
          recovered.emplace(std::move(*bt));
          final_tree = &*recovered;
        }
      }
    }
    const Clock::time_point t2 = Clock::now();
    out->m.Set("recovery_s", SecondsBetween(t0, t2), "s", 1);
    out->m.Set("io.wal.recover_ms", SecondsBetween(t0, t1) * 1e3, "ms", 1);
    out->m.Set("io.wal.log_bytes_at_recover", log_bytes, "bytes", 1);
    if (recovered) {
      // Every acknowledged write is present and every acknowledged delete
      // absent, in the write region and in the recovery segment.
      std::vector<BtEntry> got;
      MustOk(recovered->RangeSearch(writes.base(), writes.base() + writes.fresh(), &got),
             "recovered range");
      std::vector<BtEntry> want = writes.ExpectedWrites();
      std::sort(got.begin(), got.end());
      if (got != want) out->Fail(1, "recovered write region differs from acknowledged writes");
      const int64_t seg_hi = static_cast<int64_t>(2 * kSegmentRequests * 8 + 1);
      got.clear();
      MustOk(recovered->RangeSearch(0, seg_hi, &got), "recovered segment");
      StaticOracle base(*fx);
      want = base.BtreeRange(0, seg_hi);
      for (uint64_t g = 0; g < kSegmentRequests * 8; ++g) {
        if (g % 4 == 1 || g % 4 == 2) want.push_back({static_cast<int64_t>(2 * g + 1), g, 0});
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) out->Fail(1, "recovered segment differs from acknowledged writes");
      out->attempted += 2;
    }
  }
  if (wrong > 0) out->Fail(wrong, "update batches not fully applied");

  // --- answer checks (seeded sample) ---
  {
    StaticOracle oracle(*fx);
    uint64_t bad = 0;
    for (const Checked& c : checks) {
      if (!oracle.Check(c.sent.op, c.sent.req, c.resp)) ++bad;
    }
    bad += writes.CheckWriteCounts(write_checks);
    if (bad > 0) out->Fail(bad, "answers differ from the oracles");
    out->meta["answers_checked"] = std::to_string(checks.size() + write_checks.size());
  }

  // --- space, serving counters ---
  double live_records = fx->records;
  if (def.wal) {
    live_records += static_cast<double>(writes.ExpectedWrites().size()) +
                    static_cast<double>(kSegmentRequests * 8 / 2);
  }
  out->m.Set("space_amp", fx->LiveBytes() / (live_records * kRecordBytes), "ratio", 1);
  out->m.Set("io.device.pages_live", static_cast<double>(fx->device->live_pages()), "pages", 1);
  totals.Report(out);
  if (windowed) {
    out->m.Set("serve.pinned_cpu.idle_frac", Ratio(idle_s, busy_s + idle_s), "ratio", 1);
  }
  if (def.wal) {
    out->m.Set("io.wal.checkpoint_ms", Median(checkpoint_ms), "ms", checkpoint_ms.size());
  }

  if (!opt.trace) return;

  // --- traced replay of the hidden layers ---
  // The server's codec, executor and family calls, replayed directly on
  // the traced phase's own query requests at the batch size it formed.
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(untraced_batch)));
  const size_t n = std::min<size_t>(traced.queries.size(), 16384);
  ccidx::QueryExecutor replay(1);
  std::vector<uint8_t> buf;
  std::vector<double> imbalance;
  for (size_t b = 0; b < n; b += batch) {
    const size_t e = std::min(n, b + batch);
    std::vector<Request> reqs(e - b);
    for (size_t i = b; i < e; ++i) {
      buf.clear();
      {
        ScopedSpan sp(&tracer, 0, "serve.codec.encode_request", -1, i);
        ccidx::serve::EncodeRequest(traced.queries[i].req, &buf);
      }
      ScopedSpan sp(&tracer, 0, "serve.codec.decode_request", -1, i);
      MustOk(ccidx::serve::DecodeRequest(buf, &reqs[i - b]), "decode request");
    }
    std::vector<Response> resps(e - b);
    std::vector<size_t> idx(e - b);
    std::iota(idx.begin(), idx.end(), b);
    ccidx::BatchReport rep;
    {
      ScopedSpan bs(&tracer, 0, "query.executor.batch");
      rep = replay.RunBatch(std::span<const size_t>(idx),
                            [&](size_t i, size_t, unsigned w) {
                              ScopedSpan fs(&tracer, w + 1, OpName(traced.queries[i].op),
                                            bs.id(), i);
                              return ExecuteDirect(*fx, final_tree, reqs[i - b], &resps[i - b]);
                            },
                            pager);
    }
    if (!rep.ok() && !def.wal) out->Fail(1, "replay: " + rep.FirstError().ToString());
    const auto& pt = rep.per_thread_queries;
    imbalance.push_back(Ratio(*std::max_element(pt.begin(), pt.end()),
                              static_cast<double>(e - b) / pt.size()));
    for (size_t i = b; i < e; ++i) {
      buf.clear();
      {
        ScopedSpan sp(&tracer, 0, "serve.codec.encode_response", -1, i);
        ccidx::serve::EncodeResponse(resps[i - b], &buf);
      }
      Response back;
      ScopedSpan sp(&tracer, 0, "serve.codec.decode_response", -1, i);
      MustOk(ccidx::serve::DecodeResponse(buf, &back), "decode response");
    }
  }
  out->m.Set("serve.codec.encode_request_ns", Median(tracer.DurationsNsOf("serve.codec.encode_request")), "ns", n);
  out->m.Set("serve.codec.decode_response_ns", Median(tracer.DurationsNsOf("serve.codec.decode_response")), "ns", n);
  std::vector<double> bself = tracer.SelfUsOf("query.executor.batch");
  out->m.Set("query.executor.batch_self_us", Median(bself), "us", bself.size());
  out->m.Set("query.worker.imbalance", Median(imbalance), "ratio", imbalance.size());
  {
    // serve.call self time: the client's Send -> Receive minus the engine
    // time replayed for the same request.
    std::map<uint64_t, double> engine;
    tracer.ForEach([&](const Tracer::Span& s, double) {
      if (s.parent >= 0) engine[s.request] += (s.end_ns - s.start_ns) / 1e3;
    });
    std::vector<double> self;
    for (size_t i = 0; i < n; ++i) self.push_back(traced.call_us[i] - engine[i]);
    out->m.Set("serve.call.self_us", Median(self), "us", self.size());
  }
  out->meta["trace_spans"] = std::to_string(tracer.size());
  out->meta["replay_batch"] = std::to_string(batch);

  ReadMix probe_reads(*fx, opt.seed);
  WriteMix probe_writes(*fx, &probe_reads, opt.seed);
  ProbeQueries(*fx, final_tree, [&] {
    if (is_write) return probe_writes.Next();
    Sent s;
    s.req = probe_reads.ColdScan(&s.op);
    return s;
  }, out);
  if (def.wal && recovered) {
    ProbeBtreeUpdates(pager, &*recovered, writes.base() + 4 * static_cast<int64_t>(writes.fresh()) + 16, out);
  }
  ProbeSimd(!fx->ts_points.empty() ? fx->ts_points : fx->mb_points, opt.seed, out);
  std::vector<ccidx::PageId> roots;
  if (final_tree) roots.push_back(final_tree->root());
  if (fx->metablock) roots.push_back(fx->metablock->root_page());
  ProbePins(pager, roots, out);
}

// ---------------------------------------------------------------------------
// parallel-rw
// ---------------------------------------------------------------------------

/// One update of parallel-rw's write batches.
struct RwUpdate {
  enum Kind : uint8_t { kBtInsert, kBtDelete, kAmtInsert, kAmtDelete } kind;
  int64_t key;     // B+-tree key
  uint64_t value;  // B+-tree value
  Point p;         // AMT point
};

/// One query of parallel-rw's read batches.
struct RwQuery {
  bool btree;  // B+-tree 256-key range count, else AMT diagonal limit-16
  int64_t lo, hi;
};

/// parallel-rw: B+-tree (odd keys inside the loaded range, so writes
/// spread over every subtree) and AMT inserts and deletes, 3:1, against
/// B+-tree range counts and AMT diagonal limit-16 queries; keeps the
/// live sets for the checks.
class RwMix {
 public:
  RwMix(const Fixture& fx, uint64_t seed)
      : fx_(fx), rng_(seed ^ 0x77),
        bt_fen_(static_cast<size_t>(fx.bt_n) + 1, 0),
        amt_live_(fx.amt_points.size(), 1) {}

  std::vector<RwUpdate> Updates(size_t n) {
    std::vector<RwUpdate> out;
    // Deletes pick among entries inserted by earlier batches.
    const size_t bt_old = bt_live_.size(), amt_old = amt_new_live_.size();
    size_t bt_taken = 0, amt_taken = 0;
    for (size_t i = 0; i < n; ++i) {
      // One op in eight goes to the AMT: its amortized rebuilds run under
      // one structure latch and would otherwise serialize the batch.
      const bool bt = rng_.Next() % 8 != 0;
      const bool del = op_no_++ % 4 == 3;
      if (bt) {
        if (del && bt_taken < bt_old) {
          const size_t at = rng_.Next() % (bt_old - bt_taken);
          auto [key, value] = bt_live_[at];
          bt_live_[at] = bt_live_[bt_old - bt_taken - 1];
          bt_live_[bt_old - bt_taken - 1] = bt_live_.back();
          bt_live_.pop_back();
          ++bt_taken;
          BtAdd(key, -1);
          out.push_back({RwUpdate::kBtDelete, key, value, {}});
        } else {
          const int64_t key = 2 * rng_.Uniform(0, fx_.bt_n - 1) + 1;
          const uint64_t value = bt_fresh_++;
          bt_live_.push_back({key, value});
          BtAdd(key, +1);
          out.push_back({RwUpdate::kBtInsert, key, value, {}});
        }
      } else {
        if (del && amt_taken < amt_old) {
          const size_t at = rng_.Next() % (amt_old - amt_taken);
          const uint64_t id = amt_new_live_[at];
          amt_new_live_[at] = amt_new_live_[amt_old - amt_taken - 1];
          amt_new_live_[amt_old - amt_taken - 1] = amt_new_live_.back();
          amt_new_live_.pop_back();
          ++amt_taken;
          amt_live_[id] = 0;
          out.push_back({RwUpdate::kAmtDelete, 0, 0, amt_all_[id - fx_.amt_points.size()]});
        } else {
          Coord a = rng_.Uniform(0, kDomain - 1), b = rng_.Uniform(0, kDomain - 1);
          const uint64_t id = fx_.amt_points.size() + amt_all_.size();
          const Point p{std::min(a, b), std::max(a, b), id};
          amt_all_.push_back(p);
          amt_live_.push_back(1);
          amt_new_live_.push_back(id);
          out.push_back({RwUpdate::kAmtInsert, 0, 0, p});
        }
      }
    }
    return out;
  }

  std::vector<RwQuery> Queries(size_t n) {
    std::vector<RwQuery> out;
    for (size_t i = 0; i < n; ++i) {
      if (rng_.Next() % 2 == 0) {
        const int64_t lo = 2 * rng_.Uniform(0, std::max<int64_t>(0, fx_.bt_n - 256));
        out.push_back({true, lo, lo + 2 * 255});
      } else {
        out.push_back({false, rng_.Uniform(0, kDomain - 1), 0});
      }
    }
    return out;
  }

  /// Expected B+-tree count: the loaded even keys plus live odd inserts.
  uint64_t BtCount(int64_t lo, int64_t hi) const {
    const int64_t first = std::max<int64_t>(0, (lo + 1) / 2);
    const int64_t last = std::min<int64_t>(fx_.bt_n - 1, hi / 2);
    int64_t odd = BtPrefix((hi - 1) / 2 + 1) - BtPrefix(lo / 2);  // keys 2r+1 in [lo, hi]
    return static_cast<uint64_t>(std::max<int64_t>(0, last - first + 1) + odd);
  }

  /// A limit-16 diagonal answer is right when it holds min(16, |full|)
  /// distinct live points, each in the full answer.
  bool AmtLimitOk(Coord a, const std::vector<Point>& got) const {
    size_t full = 0;
    for (size_t id = 0; id < amt_live_.size(); ++id) {
      const Point& p = PointOf(id);
      if (amt_live_[id] && p.x <= a && p.y >= a) ++full;
    }
    if (got.size() != std::min<size_t>(16, full)) return false;
    std::set<uint64_t> ids;
    for (const Point& p : got) {
      if (p.id >= amt_live_.size() || !amt_live_[p.id] || !(PointOf(p.id) == p) ||
          !(p.x <= a && p.y >= a) || !ids.insert(p.id).second) {
        return false;
      }
    }
    return true;
  }

  /// Every B+-tree entry the run's updates leave, sorted.
  std::vector<BtEntry> ExpectedBtree() const {
    std::vector<BtEntry> out;
    for (int64_t i = 0; i < fx_.bt_n; ++i) out.push_back({2 * i, static_cast<uint64_t>(i), 0});
    for (const auto& [k, v] : bt_live_) out.push_back({k, v, 0});
    std::sort(out.begin(), out.end());
    return out;
  }
  size_t amt_live() const {
    return static_cast<size_t>(std::count(amt_live_.begin(), amt_live_.end(), 1));
  }
  uint64_t bt_live_inserts() const { return bt_live_.size(); }

 private:
  const Point& PointOf(uint64_t id) const {
    return id < fx_.amt_points.size() ? fx_.amt_points[id]
                                      : amt_all_[id - fx_.amt_points.size()];
  }
  // Fenwick tree over r for the odd keys 2r+1.
  void BtAdd(int64_t key, int64_t d) {
    for (size_t i = static_cast<size_t>((key - 1) / 2) + 1; i < bt_fen_.size(); i += i & (~i + 1)) {
      bt_fen_[i] += d;
    }
  }
  int64_t BtPrefix(int64_t r) const {  // live odd keys 2j+1 with j < r
    int64_t s = 0;
    for (int64_t i = std::min<int64_t>(r, static_cast<int64_t>(bt_fen_.size()) - 1); i > 0; i -= i & -i) {
      s += bt_fen_[i];
    }
    return s;
  }

  const Fixture& fx_;
  Rng rng_;
  uint64_t op_no_ = 0, bt_fresh_ = 0;
  std::vector<std::pair<int64_t, uint64_t>> bt_live_;
  std::vector<int64_t> bt_fen_;
  std::vector<Point> amt_all_;         // inserted points, id - n
  std::vector<uint8_t> amt_live_;      // by id
  std::vector<uint64_t> amt_new_live_;  // live inserted ids
};

void RunParallel(const Options& opt, const FixtureSpec& spec, Outcome* out) {
  std::unique_ptr<Fixture> fx = SetUp(spec, opt.seed, out);
  Pager* pager = fx->pager.get();
  BPlusTree* bt = &*fx->btree;
  ccidx::AugmentedMetablockTree* amt = &*fx->amt;
  const unsigned threads = AllowedCpus();
  Wal wal(fx->device.get(), ccidx::MakeMemWalStorage());
  pager->AttachWal(&wal);
  out->meta["wal_storage"] = wal.storage_name();
  out->meta["wal_flush"] = "force-at-commit, group commit, checkpoint every 16384 update ops";

  ccidx::QueryExecutor qexec(threads);
  ccidx::UpdateExecutor uexec(threads);
  ccidx::MaintenanceThread maint(qexec.gate());
  RwMix mix(*fx, opt.seed);
  constexpr size_t kBatch = 2048;
  constexpr uint64_t kCheckpointOps = 16384;
  constexpr uint64_t kChunkOps = 4 * kBatch;
  std::vector<double> checkpoint_ms;  // written by the maintenance thread
  WalBytes wal_bytes(&wal);
  uint64_t update_ops = 0, next_checkpoint = kCheckpointOps;
  size_t tombstones_peak = 0;
  uint64_t wrong = 0, checked = 0;

  // Per-op latency: there is no client request here, so a query's or
  // update's latency is the time it held a worker, measured around the
  // family call (latch, pin and WAL waits included; the wait for its turn
  // in the batch is not). Each batch contributes its p50 and p99; the
  // phase reports their medians over batches.
  struct Phase {
    std::vector<double> read_p50, read_p99, write_p50, write_p99, imbalance;
    std::vector<double> reader_wait_us, writer_wait_us;  // gate, per batch
    std::vector<double> rates;
    double ops = 0, update_ops = 0;
  };
  std::vector<std::vector<double>> op_us(threads);  // per worker
  auto run_phase = [&](double seconds, Tracer* tr) {
    Phase ph;
    double chunk_ops = 0, chunk_s = 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) {
      // Write batch.
      maint.Drain();
      std::vector<RwUpdate> ups = mix.Updates(kBatch);
      Clock::time_point t0 = Clock::now();
      ccidx::UpdateReport ur;
      {
        ScopedSpan bs(tr, 0, "query.update_executor.batch");
        ur = uexec.RunUpdates(
            std::span<const RwUpdate>(ups),
            [](const RwUpdate& u) {
              return u.kind <= RwUpdate::kBtDelete ? u.key
                                                   : static_cast<int64_t>(u.p.id | (uint64_t{1} << 62));
            },
            [&](const RwUpdate& u, size_t i, unsigned w) -> Status {
              static const char* kNames[] = {"bptree.insert", "bptree.delete",
                                             "core.augmented_metablock.insert",
                                             "core.augmented_metablock.delete"};
              ScopedSpan fs(tr, w + 1, kNames[u.kind], bs.id(), i);
              const Clock::time_point o0 = Clock::now();
              bool found = true;
              Status s;
              switch (u.kind) {
                case RwUpdate::kBtInsert: s = bt->Insert(u.key, u.value, 0); break;
                case RwUpdate::kBtDelete: s = bt->Delete(u.key, u.value, &found); break;
                case RwUpdate::kAmtInsert: s = amt->Insert(u.p); break;
                default: s = amt->Delete(u.p, &found); break;
              }
              op_us[w].push_back(MicrosBetween(o0, Clock::now()));
              return s.ok() && !found ? Status::NotFound("acknowledged entry missing") : s;
            },
            qexec.gate(), pager);
      }
      Clock::time_point t1 = Clock::now();
      CollectOpLatencies(&op_us, &ph.write_p50, &ph.write_p99);
      ph.writer_wait_us.push_back(ur.gate_wait.count() / 1e3);
      chunk_s += SecondsBetween(t0, t1);
      for (const Status& st : ur.statuses) {
        if (!st.ok()) out->Fail(1, "update: " + st.ToString());
      }
      update_ops += ups.size();
      ph.update_ops += ups.size();
      tombstones_peak = std::max(tombstones_peak, amt->outstanding_tombstones());
      if (update_ops >= next_checkpoint) {
        // Runs beside the next read batch; the next write batch waits for
        // it (Drain below), so the WAL byte count around it is exact.
        next_checkpoint += kCheckpointOps;
        auto job = maint.CheckpointJob(&wal, pager);
        maint.Schedule([&, job] {
          wal_bytes.BeforeCheckpoint();
          const Clock::time_point c0 = Clock::now();
          job();
          checkpoint_ms.push_back(SecondsBetween(c0, Clock::now()) * 1e3);
          wal_bytes.AfterCheckpoint();
        });
      }

      // Read batch.
      std::vector<RwQuery> qs = mix.Queries(kBatch);
      std::vector<uint64_t> counts(qs.size());
      std::vector<std::vector<Point>> limited(qs.size());
      t0 = Clock::now();
      ccidx::BatchReport rr;
      {
        ScopedSpan bs(tr, 0, "query.executor.batch");
        rr = qexec.RunBatch(
            std::span<const RwQuery>(qs),
            [&](const RwQuery& q, size_t i, unsigned w) -> Status {
              ScopedSpan fs(tr, w + 1,
                            q.btree ? "bptree.range_count"
                                    : "core.augmented_metablock.diagonal_limit",
                            bs.id(), i);
              const Clock::time_point o0 = Clock::now();
              Status st;
              if (q.btree) {
                ccidx::CountSink<BtEntry> sink;
                st = bt->RangeScan(q.lo, q.hi, &sink);
                counts[i] = sink.count();
              } else {
                ccidx::LimitSink<Point> sink(16);
                st = amt->Query(ccidx::DiagonalQuery{q.lo}, &sink);
                limited[i] = sink.results();
              }
              op_us[w].push_back(MicrosBetween(o0, Clock::now()));
              return st;
            },
            pager);
      }
      t1 = Clock::now();
      CollectOpLatencies(&op_us, &ph.read_p50, &ph.read_p99);
      ph.reader_wait_us.push_back(rr.gate_wait.count() / 1e3);
      chunk_s += SecondsBetween(t0, t1);
      const auto& pt = rr.per_thread_queries;
      ph.imbalance.push_back(Ratio(*std::max_element(pt.begin(), pt.end()),
                                   static_cast<double>(qs.size()) / pt.size()));
      if (!rr.ok()) out->Fail(1, "query: " + rr.FirstError().ToString());
      // Seeded sample of the answers, outside the timed batches.
      for (size_t i = 0; i < qs.size(); ++i) {
        if (!Sampled(opt.seed, (update_ops << 12) + i, qs[i].btree ? 16 : 128)) continue;
        ++checked;
        const bool ok = qs[i].btree ? counts[i] == mix.BtCount(qs[i].lo, qs[i].hi)
                                    : mix.AmtLimitOk(qs[i].lo, limited[i]);
        if (!ok) ++wrong;
      }
      ph.ops += static_cast<double>(ups.size() + qs.size());
      chunk_ops += static_cast<double>(ups.size() + qs.size());
      if (chunk_ops >= kChunkOps) {
        ph.rates.push_back(chunk_ops / chunk_s);
        chunk_ops = 0, chunk_s = 0;
      }
    }
    return ph;
  };

  Tracer off(false, 1);
  const IoStats io0 = pager->CombinedStats();
  const uint64_t pf0 = pager->prefetches_issued();
  const uint64_t r0 = wal.records(), c0 = wal.commits(), s0 = wal.syncs(), g0 = wal.group_follows();
  const double timed_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase timed = run_phase(timed_s, &off);
  maint.Drain();
  out->attempted += static_cast<uint64_t>(timed.ops);
  out->m.Set("ops_per_s", Median(timed.rates), "1/s", timed.rates.size());
  out->m.Set("query_p50_us", Median(timed.read_p50), "us", timed.read_p50.size());
  out->m.Set("query_p99_us", Median(timed.read_p99), "us", timed.read_p99.size());
  out->m.Set("update_p50_us", Median(timed.write_p50), "us", timed.write_p50.size());
  out->m.Set("update_p99_us", Median(timed.write_p99), "us", timed.write_p99.size());
  out->m.Set("query.worker.imbalance", Median(timed.imbalance), "ratio", timed.imbalance.size());
  out->m.Set("query.gate.reader_wait_p99_us", Quantile(timed.reader_wait_us, 0.99), "us",
             timed.reader_wait_us.size());
  out->m.Set("query.gate.writer_wait_p99_us", Quantile(timed.writer_wait_us, 0.99), "us",
             timed.writer_wait_us.size());

  // Counts over the timed phase. With several writers the counts depend
  // on thread interleaving, so they are averages, not exact replays.
  CountWindow cw;
  cw.io = pager->CombinedStats() - io0;
  cw.prefetches = pager->prefetches_issued() - pf0;
  cw.ops = timed.ops;
  cw.update_ops = timed.update_ops;
  cw.wal_records = wal.records() - r0;
  cw.wal_commits = wal.commits() - c0;
  cw.wal_syncs = wal.syncs() - s0;
  cw.wal_follows = wal.group_follows() - g0;
  cw.wal_bytes = wal_bytes.Total();
  ReportCounts(cw, fx->device->page_size(), out);

  if (opt.trace) {
    Tracer tracer(true, threads + 1);
    Phase traced = run_phase(timed_s, &tracer);
    maint.Drain();
    out->attempted += static_cast<uint64_t>(traced.ops);
    out->m.Set("trace.overhead_frac", 1.0 - Ratio(Median(traced.rates), Median(timed.rates)),
               "ratio", traced.rates.size());
    std::vector<double> qself = tracer.SelfUsOf("query.executor.batch");
    std::vector<double> uself = tracer.SelfUsOf("query.update_executor.batch");
    out->m.Set("query.executor.batch_self_us", Median(qself), "us", qself.size());
    out->m.Set("query.update_executor.batch_self_us", Median(uself), "us", uself.size());
    out->meta["trace_spans"] = std::to_string(tracer.size());
  }

  // Final state: the whole B+-tree and the AMT's size match the oracle.
  {
    std::vector<BtEntry> got;
    MustOk(bt->RangeSearch(std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max(), &got),
           "final scan");
    std::sort(got.begin(), got.end());
    if (got != mix.ExpectedBtree()) out->Fail(1, "B+-tree contents differ from acknowledged updates");
    if (amt->size() != mix.amt_live()) out->Fail(1, "AMT size differs from acknowledged updates");
    out->attempted += 2;
  }
  if (wrong > 0) out->Fail(wrong, "answers differ from the oracles");
  out->meta["answers_checked"] = std::to_string(checked + 2);

  const double live = static_cast<double>(fx->bt_n + mix.bt_live_inserts() + mix.amt_live());
  out->m.Set("space_amp", fx->LiveBytes() / (live * kRecordBytes), "ratio", 1);
  out->m.Set("io.device.pages_live", static_cast<double>(fx->device->live_pages()), "pages", 1);
  out->m.Set("io.wal.checkpoint_ms", Median(checkpoint_ms), "ms", checkpoint_ms.size());
  out->m.Set("dynamic.maintenance.checkpoints", static_cast<double>(maint.checkpoints_taken()), "count", 1);
  out->m.Set("dynamic.tombstones_peak", static_cast<double>(tombstones_peak), "count", 1);
  if (maint.checkpoints_failed() > 0) out->Fail(maint.checkpoints_failed(), "checkpoint failed");

  if (!opt.trace) return;
  // Direct single-thread family calls on the workload's own inputs.
  RwMix probe(*fx, opt.seed ^ 0xabc);
  std::vector<RwQuery> qs = probe.Queries(4 * kFamilyProbes);
  std::vector<RwQuery> bq, aq;
  for (const RwQuery& q : qs) (q.btree ? bq : aq).push_back(q);
  ProbeCalls(pager, "bptree.range_count", std::min(bq.size(), kFamilyProbes), [&](size_t i) {
    ccidx::CountSink<BtEntry> sink;
    return bt->RangeScan(bq[i].lo, bq[i].hi, &sink);
  }, out);
  ProbeCalls(pager, "core.augmented_metablock.diagonal_limit", std::min(aq.size(), kFamilyProbes),
             [&](size_t i) {
               ccidx::LimitSink<Point> sink(16);
               return amt->Query(ccidx::DiagonalQuery{aq[i].lo}, &sink);
             }, out);
  ProbeBtreeUpdates(pager, bt, 2 * fx->bt_n + 2, out);
  std::vector<Point> fresh;
  Rng rng(opt.seed ^ 0xfeed);
  for (size_t i = 0; i < kFamilyProbes; ++i) {
    Coord a = rng.Uniform(0, kDomain - 1), b = rng.Uniform(0, kDomain - 1);
    fresh.push_back({std::min(a, b), std::max(a, b), (uint64_t{1} << 40) + i});
  }
  ProbeCalls(pager, "core.augmented_metablock.insert", fresh.size(),
             [&](size_t i) { return amt->Insert(fresh[i]); }, out);
  ProbeCalls(pager, "core.augmented_metablock.delete", fresh.size(), [&](size_t i) {
    bool found = false;
    Status s = amt->Delete(fresh[i], &found);
    return s.ok() && !found ? Status::NotFound("probe point missing") : s;
  }, out);
  ProbeSimd(fx->amt_points, opt.seed, out);
  ProbePins(pager, {bt->root(), amt->root_page()}, out);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = val();
    else if (a == "--seed") opt.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::strtod(val().c_str(), nullptr);
    else if (a == "--trace") opt.trace = val() == "1";
    else if (a == "--tiny") opt.tiny = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  // Runs must not depend on the caller's environment: every engine knob
  // the library reads from CCIDX_* variables keeps its default.
  for (const char* v : {"CCIDX_DEVICE", "CCIDX_DEVICE_DIR", "CCIDX_DEVICE_LATENCY_US",
                        "CCIDX_PREFETCH", "CCIDX_SPEC_BUDGET", "CCIDX_PAGER_SHARDS",
                        "CCIDX_SIMD", "CCIDX_URING", "CCIDX_WAL"}) {
    unsetenv(v);
  }

  // Injected device latency is a sleep; with the default 50 us timer slack
  // a 50 us read would sleep ~100 us, and by a varying amount.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // CPU placement is part of each workload's definition; it is set before
  // any thread starts so every server, pager and WAL thread inherits it.
  const unsigned nproc = AllowedCpus();
  const size_t shift = opt.tiny ? 6 : 0;
  FixtureSpec spec;
  std::string cpus;
  std::string sched = "SCHED_OTHER";
  ServingDef def{};
  bool serving = true;
  if (opt.workload == "serve-write") {
    cpus = PlaceProcess(1);
    spec.metablock = spec.three_sided = spec.interval = (size_t{1} << 17) >> shift;
    spec.btree = (size_t{1} << 19) >> shift;
    spec.pool_pages = 1u << 17;  // holds every page: a warm pool
    def = ServingDef{16, 4096, 2048, 64, true};
    def.windowed_cpu = std::atoi(cpus.c_str());
    sched = UseBatchScheduling() ? "SCHED_BATCH" : "SCHED_OTHER (SCHED_BATCH refused)";
  } else if (opt.workload == "cold-scan") {
    cpus = PlaceProcess(1);
    spec.metablock = spec.three_sided = (size_t{1} << 17) >> shift;
    spec.btree = (size_t{1} << 19) >> shift;
    spec.pool_pages = static_cast<uint32_t>(2560 >> shift);  // ~1/16 of the fixture
    spec.device.read_latency_us = 50;
    def = ServingDef{4, 512, 256, 16, false};
  } else if (opt.workload == "parallel-rw") {
    cpus = PlaceProcess(0);
    spec.btree = (size_t{1} << 19) >> shift;
    spec.amt = (size_t{1} << 17) >> shift;
    spec.pool_pages = 1u << 17;
    serving = false;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  Outcome out;
  out.meta["workload"] = opt.workload;
  out.meta["seed"] = std::to_string(opt.seed);
  out.meta["seconds"] = std::to_string(opt.seconds);
  out.meta["trace"] = opt.trace ? "1" : "0";
  out.meta["scale"] = opt.tiny ? "tiny" : "full";
  out.meta["nproc"] = std::to_string(nproc);
  out.meta["cpus"] = cpus;
  out.meta["sched"] = sched;
  out.meta["simd"] = ccidx::simd::LevelName(ccidx::simd::ActiveLevel());
  out.meta["device"] = spec.device.backend + ", read latency " +
                       std::to_string(spec.device.read_latency_us) + " us";
  out.meta["fixture"] = "metablock=" + std::to_string(spec.metablock) +
                        " three_sided=" + std::to_string(spec.three_sided) +
                        " interval=" + std::to_string(spec.interval) +
                        " btree=" + std::to_string(spec.btree) +
                        " amt=" + std::to_string(spec.amt) + " B=" + std::to_string(kB);
  if (serving) {
    out.meta["outstanding"] = std::to_string(def.depth);
    RunServing(opt, def, spec, &out);
  } else {
    RunParallel(opt, spec, &out);
  }
  out.m.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  out.m.Set("error_rate", Ratio(out.failed, out.attempted), "ratio", out.attempted);

  for (const std::string& p : out.problems) std::printf("problem: %s\n", p.c_str());
  for (const auto& [name, m] : out.m.all()) {
    std::printf("metric %-44s %14.6g %-8s n=%" PRIu64 "\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& [name, m] : out.m.all()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintJsonString(name);
    std::printf(": {\"value\": %.9g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf(", \"samples\": %" PRIu64 "}", m.samples);
  }
  std::printf("}, \"problems\": [");
  for (size_t i = 0; i < out.problems.size(); ++i) {
    std::printf("%s", i > 0 ? ", " : "");
    PrintJsonString(out.problems[i]);
  }
  std::printf("], \"meta\": {");
  first = true;
  for (const auto& [k, v] : out.meta) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    PrintJsonString(k);
    std::printf(": ");
    PrintJsonString(v);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
