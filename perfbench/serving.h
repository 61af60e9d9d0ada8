// The serving workloads (serve-write, cold-scan): one generator thread
// drives a Server over one LoopbackConnection as a closed loop with a
// fixed number of requests outstanding.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <deque>
#include <functional>

#include "ccidx/serve/server.h"
#include "ccidx/serve/transport.h"
#include "fixture.h"

namespace perfbench {

/// A request the generator produced, with what is needed to check it.
struct Sent {
  Op op = Op::kUpdate;
  Request req;
  uint64_t seq = 0;           // position in the workload's request stream
  uint64_t ops_at_send = 0;  // serve-write: update ops sent before it
};

/// A response kept for checking after the run.
struct Checked {
  Sent sent;
  Response resp;
  uint64_t ops_at_recv = 0;  // serve-write: update ops sent before its reply
};

/// Per-phase results of a closed loop.
struct LoopResult {
  uint64_t requests = 0;
  uint64_t ops = 0;          // queries + update ops
  uint64_t update_ops = 0;
  uint64_t not_ok = 0;       // shed, deadline-dropped or failed responses
  double seconds = 0;        // CPU time if windowed, else wall time
  std::vector<double> query_us, update_us;
  double ops_per_s = 0;      // median over fixed-size chunks
  size_t chunks = 0;
  std::vector<Sent> queries;  // traced runs: every query request, in order
  std::vector<double> call_us;  // traced runs: Send -> Receive per query
};

inline std::array<uint64_t, 3> ToRecord(const Point& p) {
  return {static_cast<uint64_t>(p.x), static_cast<uint64_t>(p.y), p.id};
}
inline std::array<uint64_t, 3> ToRecord(const BtEntry& e) {
  return {static_cast<uint64_t>(e.key), e.value, static_cast<uint64_t>(e.aux)};
}
inline std::array<uint64_t, 3> ToRecord(const Interval& iv) {
  return {static_cast<uint64_t>(iv.lo), static_cast<uint64_t>(iv.hi), iv.id};
}

/// Execution of one request against the fixture, outside the server: the
/// same family call and sink the dispatcher uses for that request.
inline ccidx::Status ExecuteDirect(const Fixture& fx, const BPlusTree* btree,
                                   const Request& req, Response* resp) {
  using namespace ccidx;
  resp->id = req.id;
  auto to_records = [&](const auto& rows) {
    resp->count = rows.size();
    for (const auto& r : rows) resp->records.push_back(ToRecord(r));
  };
  auto run = [&](auto tag, auto&& call) -> Status {
    using T = decltype(tag);
    switch (req.mode) {
      case ResultMode::kCount: {
        CountSink<T> sink;
        Status s = call(&sink);
        resp->count = sink.count();
        return s;
      }
      case ResultMode::kLimit: {
        LimitSink<T> sink(req.limit);
        Status s = call(&sink);
        to_records(sink.results());
        return s;
      }
      case ResultMode::kExists: {
        ExistsSink<T> sink;
        Status s = call(&sink);
        resp->count = sink.exists() ? 1 : 0;
        return s;
      }
      default: {
        std::vector<T> out;
        VectorSink<T> sink(&out);
        Status s = call(&sink);
        to_records(out);
        return s;
      }
    }
  };
  switch (req.type) {
    case RequestType::kMetablockDiagonal:
      return run(Point{}, [&](ResultSink<Point>* s) {
        return fx.metablock->Query(DiagonalQuery{req.args[0]}, s);
      });
    case RequestType::kBtreeRange:
      return run(BtEntry{}, [&](ResultSink<BtEntry>* s) {
        return btree->RangeScan(req.args[0], req.args[1], s);
      });
    case RequestType::kIntervalStab:
      return run(Interval{}, [&](ResultSink<Interval>* s) {
        return fx.interval->Stab(req.args[0], s);
      });
    case RequestType::kThreeSided:
      return run(Point{}, [&](ResultSink<Point>* s) {
        return fx.three_sided->Query(
            ThreeSidedQuery{req.args[0], req.args[1], req.args[2]}, s);
      });
    default:
      return Status::InvalidArgument("not a query");
  }
}

/// Closed-loop client over one connection, in one of two modes.
///
/// Pipelined (wall clock): a new request goes out as soon as a response
/// frees its slot; latencies and chunk rates are wall time.
///
/// Windowed (CPU time): `depth` requests go out together and the next
/// window waits for all of their responses, so on one CPU every window is
/// one hand-off to the server and one back, whatever order the scheduler
/// runs the threads in. Time is the process's CPU time, which leaves out
/// the time a shared host's other tenants hold the CPU (steal, other
/// processes): the CPU clock, a system call, is read once per window,
/// and each request's wall latency is scaled by its window's CPU time
/// over wall time.
class ClosedLoop {
 public:
  using NextFn = std::function<Sent()>;
  /// Called with each response in order; may ask the loop to pause
  /// sending until everything outstanding has returned (*drain = true),
  /// after which `on_drained` runs.
  using DoneFn = std::function<void(const Sent&, const Response&, bool* drain)>;

  ClosedLoop(ccidx::serve::LoopbackConnection* conn, size_t depth, bool windowed)
      : conn_(conn), depth_(depth), windowed_(windowed) {}

  /// Sends until `max_requests` were sent or `seconds` of wall time
  /// elapsed (whichever is set), then collects every outstanding
  /// response. LoopResult::seconds is CPU time in windowed mode.
  LoopResult Run(const NextFn& next, const DoneFn& done,
                 const std::function<void()>& on_drained,
                 uint64_t max_requests, double seconds, uint64_t chunk_ops,
                 Tracer* tracer) {
    LoopResult r;
    ChunkedRate rate(chunk_ops);
    std::deque<std::pair<Sent, Clock::time_point>> inflight;
    std::deque<Tracer::SpanId> spans;
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    // Windowed: where the current window started, on both clocks, and
    // where its latency samples start.
    const double cpu0 = windowed_ ? ProcessCpuSeconds() : 0;
    double win_cpu = cpu0;
    Clock::time_point win_wall = t0;
    size_t win_q = 0, win_u = 0, win_c = 0;
    uint64_t win_ops = 0;
    rate.Start(windowed_ ? cpu0 : 0);
    bool sending = true;
    bool draining = false;
    uint64_t sent = 0;
    for (;;) {
      const bool refill = !windowed_ || inflight.empty();
      while (refill && sending && !draining && inflight.size() < depth_) {
        Sent s = next();
        const bool is_query = s.op != Op::kUpdate;
        if (tracer->enabled() && is_query) {
          spans.push_back(tracer->Begin(0, "serve.call", -1, r.queries.size()));
          r.queries.push_back(s);
        }
        Request req = s.req;
        const Clock::time_point ts = Clock::now();
        conn_->Send(std::move(req));
        inflight.emplace_back(std::move(s), ts);
        ++sent;
        if (max_requests > 0 && sent >= max_requests) sending = false;
      }
      if (inflight.empty()) {
        if (draining) {
          draining = false;
          on_drained();
          if (windowed_) win_cpu = ProcessCpuSeconds(), win_wall = Clock::now();
          if (sending) continue;
        }
        break;
      }
      Response resp = conn_->Receive();
      const Clock::time_point now = Clock::now();
      auto [s, ts] = std::move(inflight.front());
      inflight.pop_front();
      const double us = MicrosBetween(ts, now);
      uint64_t ops = 1;
      if (s.op == Op::kUpdate) {
        ops = s.req.updates.size();
        r.update_ops += ops;
        r.update_us.push_back(us);
      } else {
        r.query_us.push_back(us);
        if (tracer->enabled()) {
          tracer->End(spans.front());
          spans.pop_front();
          r.call_us.push_back(us);
        }
      }
      if (resp.status != ccidx::serve::WireStatus::kOk) ++r.not_ok;
      r.ops += ops;
      ++r.requests;
      win_ops += ops;
      if (!windowed_) {
        rate.Add(ops, SecondsBetween(t0, now));
      } else if (inflight.empty()) {  // the window is complete
        const double cpu = ProcessCpuSeconds();
        const double wall = SecondsBetween(win_wall, now);
        const double f = wall > 0 ? std::min(1.0, (cpu - win_cpu) / wall) : 1.0;
        for (auto [v, from] : {std::pair{&r.query_us, win_q}, std::pair{&r.update_us, win_u},
                               std::pair{&r.call_us, win_c}}) {
          for (size_t i = from; i < v->size(); ++i) (*v)[i] *= f;
        }
        rate.Add(win_ops, cpu);
        win_cpu = cpu, win_wall = now, win_ops = 0;
        win_q = r.query_us.size(), win_u = r.update_us.size(), win_c = r.call_us.size();
      }
      bool drain = false;
      done(s, resp, &drain);
      if (drain) draining = true;
      if (seconds > 0 && sending && now >= deadline) sending = false;
    }
    r.seconds = windowed_ ? ProcessCpuSeconds() - cpu0 : SecondsBetween(t0, Clock::now());
    r.ops_per_s = rate.chunks() > 0 ? rate.MedianRate()
                                    : static_cast<double>(r.ops) / r.seconds;
    r.chunks = rate.chunks();
    return r;
  }

 private:
  ccidx::serve::LoopbackConnection* conn_;
  size_t depth_;
  bool windowed_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
