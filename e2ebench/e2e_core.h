// Measurement core of the end-to-end benchmark (e2ebench/README.md):
// percentiles, open-loop schedules and lag accounting, freshness
// attribution, and the in-memory span tracer with its self-time and
// coverage arithmetic. Header-only and free of library dependencies, so
// e2e_selftest.cc can check every rule here on synthetic inputs.
#ifndef EHNA_E2EBENCH_E2E_CORE_H_
#define EHNA_E2EBENCH_E2E_CORE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ percentiles

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps q * n from rounding up past an exact rank.
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
inline size_t SamplesBeyond(size_t n, double pct) {
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The highest percentile of the ladder {99.9, 99, 95, 90, 50} that has at
/// least ten samples beyond it among `n`; 0 when none has.
inline double HighestReportablePercentile(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0.0;
}

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_pct = 0.0;  // HighestReportablePercentile(n).
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.p50 = Quantile(values, 0.50);
  s.p99 = Quantile(values, 0.99);
  s.top_pct = HighestReportablePercentile(s.n);
  return s;
}

// ------------------------------------------------------ open-loop schedule

/// SplitMix64: the schedule's own generator, so a seed gives the same
/// schedule under any standard library.
struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

/// Due times (ns from the schedule start) of a Poisson arrival process of
/// `rate` per second over `seconds`.
inline std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                            uint64_t seed) {
  std::vector<int64_t> due;
  if (rate <= 0 || seconds <= 0) return due;
  SplitMix64 rng{seed};
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

struct LagReport {
  double p99_ms = 0.0;
  /// The generator fell further behind over the run: the mean lag of the
  /// last quarter of requests exceeds that of the first quarter by more
  /// than a tenth of the schedule's span. A run with a growing backlog is
  /// failed, not reported as slow.
  bool growing = false;
};

/// `due_ns[i]` is when request i was due, `sent_ns[i]` when the generator
/// actually issued it (same clock).
inline LagReport AccountLag(const std::vector<int64_t>& due_ns,
                            const std::vector<int64_t>& sent_ns) {
  LagReport r;
  const size_t n = std::min(due_ns.size(), sent_ns.size());
  if (n == 0) return r;
  std::vector<double> lag_ms(n);
  for (size_t i = 0; i < n; ++i) {
    lag_ms[i] = static_cast<double>(sent_ns[i] - due_ns[i]) / 1e6;
  }
  r.p99_ms = Quantile(lag_ms, 0.99);
  const size_t q = n / 4;
  if (q == 0) return r;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += lag_ms[i];
    last += lag_ms[n - q + i];
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  const double span_ms = static_cast<double>(due_ns[n - 1] - due_ns[0]) / 1e6;
  r.growing = last - first > 0.1 * span_ms;
  return r;
}

// ------------------------------------------------- freshness attribution

/// One accepted Ingest call: when its edge was due, the server's refresh
/// count seen before the call (the value at acceptance) and after it, and
/// when the call returned.
struct IngestCall {
  int64_t due_ns = 0;
  uint64_t refreshes_before = 0;
  uint64_t refreshes_after = 0;
  int64_t end_ns = 0;
};

/// Freshness of each edge: from its due time until the return of the first
/// Ingest call (its own or a later one) that raised the refresh count past
/// the value seen when the edge was accepted. Edges no call refreshed are
/// still pending at the end of the schedule; they are excluded and counted
/// in `*pending`.
inline std::vector<double> FreshnessMs(const std::vector<IngestCall>& calls,
                                       size_t* pending) {
  std::vector<double> out;
  std::vector<const IngestCall*> waiting;
  for (const IngestCall& c : calls) {
    waiting.push_back(&c);
    if (c.refreshes_after <= c.refreshes_before) continue;
    std::vector<const IngestCall*> still;
    for (const IngestCall* w : waiting) {
      if (w->refreshes_before < c.refreshes_after) {
        out.push_back(static_cast<double>(c.end_ns - w->due_ns) / 1e6);
      } else {
        still.push_back(w);
      }
    }
    waiting.swap(still);
  }
  if (pending != nullptr) *pending = waiting.size();
  return out;
}

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span on the same thread.
  uint64_t request = 0;  // 0 = not part of a request.
};

/// The layer a span belongs to: its name up to the first '.'.
inline std::string_view LayerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

/// Total length of the union of half-open intervals.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap one another).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[s.parent];
    children[s.parent].emplace_back(std::max(s.start_ns, p.start_ns),
                                    std::min(s.end_ns, p.end_ns));
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns -
              UnionLength(std::move(children[i]));
  }
  return self;
}

/// Share of spans in `probes` that overlap any span in `blockers`.
inline double OverlapFraction(
    const std::vector<std::pair<int64_t, int64_t>>& probes,
    std::vector<std::pair<int64_t, int64_t>> blockers) {
  if (probes.empty()) return 0.0;
  std::sort(blockers.begin(), blockers.end());
  size_t hit = 0;
  for (const auto& [lo, hi] : probes) {
    // Blockers are sorted by start; any with start < hi may overlap.
    auto end = std::lower_bound(blockers.begin(), blockers.end(),
                                std::make_pair(hi, INT64_MIN));
    for (auto it = blockers.begin(); it != end; ++it) {
      if (it->second > lo) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(probes.size());
}

/// In-memory span recorder. Disabled, Begin() costs one relaxed check and
/// records nothing; enabled, each span costs two clock reads and two short
/// critical sections. Spans are written out when the benchmark ends.
class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }
  bool enabled() const { return enabled_; }
  void SetEnabled(bool on) { enabled_ = on; }

  int64_t Begin(std::string_view name, uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::string(name);
    s.parent = Stack().empty() ? -1 : Stack().back();
    s.request = request;
    s.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    Stack().push_back(id);
    return id;
  }
  void End(int64_t id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = now;
    if (!Stack().empty() && Stack().back() == id) Stack().pop_back();
  }
  /// Renames an open or closed span (a call's kind can depend on what it
  /// did, e.g. whether an Ingest triggered a refresh).
  void Rename(int64_t id, std::string_view name) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].name = std::string(name);
  }
  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }
  bool enabled_ = false;  // set only while no other thread records.
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, uint64_t request = 0)
      : id_(Tracer::Get().Begin(name, request)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

}  // namespace e2e

#endif  // EHNA_E2EBENCH_E2E_CORE_H_
