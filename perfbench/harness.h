// Measurement plumbing for perfbench: clocks, quantiles,
// chunked throughput, the metric table, the span tracer, CPU placement
// and process memory. Nothing here knows about ccidx.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// splitmix64: seeds, per-request sampling and the workload generators.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix64(seed)) {}
  uint64_t Next() { return Mix64(s_++); }
  /// Uniform in [lo, hi] (inclusive).
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t s_;
};

/// Throughput as the median over fixed-size chunks of completions: a host
/// stall slows the chunk it lands in and moves the mean, not the median.
/// Times are seconds on the caller's clock (wall or CPU time).
class ChunkedRate {
 public:
  explicit ChunkedRate(uint64_t chunk_ops) : chunk_ops_(chunk_ops) {}
  void Start(double t) { chunk_start_ = t, in_chunk_ = 0; }
  void Add(uint64_t ops, double t) {
    in_chunk_ += ops;
    if (in_chunk_ >= chunk_ops_) {
      rates_.push_back(static_cast<double>(in_chunk_) / (t - chunk_start_));
      Start(t);
    }
  }
  double MedianRate() const { return Median(rates_); }
  size_t chunks() const { return rates_.size(); }

 private:
  uint64_t chunk_ops_;
  uint64_t in_chunk_ = 0;
  double chunk_start_ = 0;
  std::vector<double> rates_;
};

/// CPU seconds the whole process (every thread) has run so far. The
/// kernel leaves out the time the host hypervisor took the CPU away
/// (steal) and the time other processes held it.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Seconds CPU `cpu` has spent idle (idle + iowait in /proc/stat; tick
/// resolution), or a negative value if it cannot be read.
inline double CpuIdleSeconds(int cpu) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  const std::string want = "cpu" + std::to_string(cpu) + " ";
  char line[512];
  double idle = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::string(line).rfind(want, 0) != 0) continue;
    unsigned long long v[5] = {};
    if (std::sscanf(line + want.size(), "%llu %llu %llu %llu %llu", &v[0], &v[1],
                    &v[2], &v[3], &v[4]) == 5) {
      idle = static_cast<double>(v[3] + v[4]) / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    break;
  }
  std::fclose(f);
  return idle;
}

/// One named result: value, unit and the sample count behind it.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    m_[name] = Metric{value, unit, samples};
  }
  const std::map<std::string, Metric>& all() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

/// In-memory span recorder. Spans are opened and closed only in the
/// benchmark's own code, around calls into one layer. Each recording
/// thread owns one lane (lane 0 is the driving thread, lane w + 1 the
/// executor's worker w), so recording takes no lock. A span's self time
/// is its duration minus its children's: children on one lane run in
/// sequence, and children spread over several worker lanes run in
/// parallel, so their summed time is divided by the number of lanes.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // SpanId of the causing span, -1 for a root
    uint64_t request;
  };
  using SpanId = int64_t;  // lane << 32 | index within the lane

  Tracer(bool enabled, unsigned lanes)
      : enabled_(enabled), epoch_(Clock::now()), lanes_(lanes) {
    if (enabled_) {
      for (auto& l : lanes_) l.reserve(1 << 16);
    }
  }
  bool enabled() const { return enabled_; }

  SpanId Begin(unsigned lane, const char* name, SpanId parent = -1,
               uint64_t request = 0) {
    if (!enabled_) return -1;
    lanes_[lane].push_back(Span{name, Now(), 0, parent, request});
    return (static_cast<SpanId>(lane) << 32) |
           static_cast<SpanId>(lanes_[lane].size() - 1);
  }
  void End(SpanId id) {
    if (id >= 0) At(id).end_ns = Now();
  }

  /// Calls fn(span, self_ns) for every span.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::map<SpanId, std::pair<double, uint64_t>> children;  // sum, lane mask
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      for (const Span& s : lanes_[lane]) {
        if (s.parent < 0) continue;
        auto& c = children[s.parent];
        c.first += static_cast<double>(s.end_ns - s.start_ns);
        c.second |= uint64_t{1} << (lane % 64);
      }
    }
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      for (size_t i = 0; i < lanes_[lane].size(); ++i) {
        const Span& s = lanes_[lane][i];
        double self = static_cast<double>(s.end_ns - s.start_ns);
        auto it = children.find((static_cast<SpanId>(lane) << 32) |
                                static_cast<SpanId>(i));
        if (it != children.end()) {
          self -= it->second.first / std::popcount(it->second.second);
        }
        fn(s, self);
      }
    }
  }

  /// Self times (us) of every span called `name`.
  std::vector<double> SelfUsOf(const std::string& name) const {
    std::vector<double> out;
    ForEach([&](const Span& s, double self) {
      if (name == s.name) out.push_back(self / 1000.0);
    });
    return out;
  }

  /// Durations (ns) of every span called `name`.
  std::vector<double> DurationsNsOf(const std::string& name) const {
    std::vector<double> out;
    ForEach([&](const Span& s, double) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    });
    return out;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& l : lanes_) n += l.size();
    return n;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Span& At(SpanId id) {
    return lanes_[static_cast<size_t>(id >> 32)][static_cast<size_t>(id & 0xffffffff)];
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, unsigned lane, const char* name,
             Tracer::SpanId parent = -1, uint64_t request = 0)
      : t_(t), id_(t->Begin(lane, name, parent, request)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Tracer::SpanId id() const { return id_; }

 private:
  Tracer* t_;
  Tracer::SpanId id_;
};

/// Restricts the whole process to the first `n` CPUs it may run on
/// (n == 0: all of them) and returns the CPU list it now runs on, e.g.
/// "0" or "0-3". Must run before any thread starts, so every thread the
/// program creates inherits the placement.
inline std::string PlaceProcess(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "?";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  unsigned taken = 0;
  for (int c = 0; c < CPU_SETSIZE && (n == 0 || taken < n); ++c) {
    if (CPU_ISSET(c, &allowed)) CPU_SET(c, &chosen), ++taken;
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) return "?";
  std::string list;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &chosen)) continue;
    int e = c;
    while (e + 1 < CPU_SETSIZE && CPU_ISSET(e + 1, &chosen)) ++e;
    if (!list.empty()) list += ",";
    list += e == c ? std::to_string(c)
                   : std::to_string(c) + "-" + std::to_string(e);
    c = e;
  }
  return list;
}

/// Puts the calling thread, and every thread it starts afterwards, under
/// SCHED_BATCH: a thread that wakes up no longer preempts the one
/// running, so on one CPU a closed-loop client sends its whole window
/// before the server runs, and the batches the server forms do not hang
/// on the scheduler's wake-up decisions. Must run before any thread
/// starts. Returns false if the policy could not be set.
inline bool UseBatchScheduling() {
  sched_param p{};
  return sched_setscheduler(0, SCHED_BATCH, &p) == 0;
}

/// CPUs the process may run on.
inline unsigned AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&allowed));
}

inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
