// Self-tests of the benchmark's measurement rules (e2e_core.h): the
// percentile rule, self time under overlapping child spans, freshness
// attribution of refresh-triggering Ingest calls, and lag accounting on
// synthetic open-loop schedules. run.py runs this before every benchmark
// run and refuses to measure if it fails.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "e2e_core.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ++g_failures;                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
    }                                                                   \
  } while (0)

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input.
  EXPECT(e2e::Quantile(v, 0.50) == 50);
  EXPECT(e2e::Quantile(v, 0.99) == 99);
  EXPECT(e2e::Quantile(v, 1.00) == 100);
  EXPECT(e2e::Quantile({}, 0.5) == 0);

  EXPECT(e2e::SamplesBeyond(1000, 99.0) == 10);
  EXPECT(e2e::SamplesBeyond(999, 99.0) == 9);
  // The highest percentile with at least ten samples beyond it.
  EXPECT(e2e::HighestReportablePercentile(10000) == 99.9);
  EXPECT(e2e::HighestReportablePercentile(9999) == 99.0);
  EXPECT(e2e::HighestReportablePercentile(1000) == 99.0);
  EXPECT(e2e::HighestReportablePercentile(999) == 95.0);
  EXPECT(e2e::HighestReportablePercentile(200) == 95.0);
  EXPECT(e2e::HighestReportablePercentile(100) == 90.0);
  EXPECT(e2e::HighestReportablePercentile(20) == 50.0);
  EXPECT(e2e::HighestReportablePercentile(19) == 0.0);

  std::vector<double> many(1000);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<double>(i);
  const e2e::Summary s = e2e::Summarize(many);
  EXPECT(s.n == 1000 && s.top_pct == 99.0 && s.p50 == 499 && s.p99 == 989);
}

e2e::Span MakeSpan(int64_t start, int64_t end, int64_t parent) {
  return e2e::Span{std::string(), start, end, parent, 0};
}

void TestSelfTime() {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap each other, and
  // [90, 120) runs past the parent's end (a child on another thread). The
  // covered part of the parent is [10, 60) + [90, 100) = 60.
  std::vector<e2e::Span> spans = {
      MakeSpan(0, 100, -1), MakeSpan(10, 40, 0), MakeSpan(30, 60, 0),
      MakeSpan(90, 120, 0),
      MakeSpan(15, 20, 1),  // grandchild: counts against its parent only.
      MakeSpan(200, 250, -1)};
  const std::vector<int64_t> self = e2e::SelfTimesNs(spans);
  EXPECT(self[0] == 40);
  EXPECT(self[1] == 25);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 5);
  EXPECT(self[5] == 50);

  EXPECT(e2e::UnionLength({{0, 10}, {5, 15}, {20, 30}, {30, 31}}) == 26);
  EXPECT(e2e::UnionLength({{3, 3}, {5, 4}}) == 0);
  EXPECT(e2e::LayerOf("serve.query") == "serve");
  EXPECT(e2e::LayerOf("plain") == "plain");
}

void TestOverlapFraction() {
  const std::vector<std::pair<int64_t, int64_t>> probes = {
      {0, 10}, {20, 30}, {50, 60}, {24, 26}};
  EXPECT(e2e::OverlapFraction(probes, {{5, 25}}) == 0.75);
  EXPECT(e2e::OverlapFraction(probes, {}) == 0.0);
  // Touching end points do not overlap (half-open intervals).
  EXPECT(e2e::OverlapFraction({{0, 10}}, {{10, 20}}) == 0.0);
}

void TestFreshnessAttribution() {
  // refresh_batch = 3: the third Ingest call triggers a refresh (refresh
  // count 0 -> 1) that makes all three edges fresh when it returns.
  std::vector<e2e::IngestCall> calls = {
      {0'000'000, 0, 0, 1'000'000},
      {2'000'000, 0, 0, 3'000'000},
      {4'000'000, 0, 1, 90'000'000},
      // Accepted after the refresh: fresh only at the next refresh.
      {95'000'000, 1, 1, 96'000'000},
      {97'000'000, 1, 1, 98'000'000},
      {99'000'000, 1, 2, 150'000'000},
      // Pending when the schedule ends: excluded.
      {160'000'000, 2, 2, 161'000'000},
  };
  size_t pending = 0;
  const std::vector<double> f = e2e::FreshnessMs(calls, &pending);
  EXPECT(f.size() == 6);
  EXPECT(pending == 1);
  if (f.size() == 6) {
    EXPECT(f[0] == 90.0 && f[1] == 88.0 && f[2] == 86.0);
    EXPECT(f[3] == 55.0 && f[4] == 53.0 && f[5] == 51.0);
  }
  // An edge accepted while an older refresh count was current is fresh at
  // the first call that raises the count past it, even if that call
  // raised it by more than one.
  std::vector<e2e::IngestCall> jump = {{0, 5, 5, 10}, {20, 5, 7, 30}};
  const std::vector<double> g = e2e::FreshnessMs(jump, &pending);
  EXPECT(g.size() == 2 && pending == 0);
}

/// Sent times of a single-server open loop: request i is issued when it
/// is due or when the previous one completes, whichever is later.
std::vector<int64_t> Serve(const std::vector<int64_t>& due,
                           int64_t service_ns, int64_t stall_every,
                           int64_t stall_ns) {
  std::vector<int64_t> sent(due.size());
  int64_t free_at = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    sent[i] = std::max(due[i], free_at);
    int64_t busy = service_ns;
    if (stall_every > 0 && static_cast<int64_t>(i) % stall_every == 0) {
      busy += stall_ns;
    }
    free_at = sent[i] + busy;
  }
  return sent;
}

void TestLagAccounting() {
  std::vector<int64_t> due;
  for (int i = 0; i < 1000; ++i) due.push_back(int64_t{i} * 10'000'000);

  // Keeps up: each request takes 1 ms of a 10 ms gap, so none is late.
  e2e::LagReport r = e2e::AccountLag(due, Serve(due, 1'000'000, 0, 0));
  EXPECT(r.p99_ms == 0.0 && !r.growing);

  // Periodic 300 ms stalls (a refresh) make requests late, but the backlog
  // drains between stalls: late, not growing.
  r = e2e::AccountLag(due, Serve(due, 1'000'000, 100, 300'000'000));
  EXPECT(r.p99_ms > 200.0 && !r.growing);

  // Service slower than arrivals: the backlog grows without bound.
  r = e2e::AccountLag(due, Serve(due, 12'000'000, 0, 0));
  EXPECT(r.growing);
  EXPECT(std::abs(r.p99_ms - 0.002 * 989 * 1000) < 1e-6);

  EXPECT(!e2e::AccountLag({}, {}).growing);
}

void TestPoissonSchedule() {
  const std::vector<int64_t> a = e2e::PoissonSchedule(50.0, 100.0, 7);
  const std::vector<int64_t> b = e2e::PoissonSchedule(50.0, 100.0, 7);
  const std::vector<int64_t> c = e2e::PoissonSchedule(50.0, 100.0, 8);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() > 4750 && a.size() < 5250);
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i] >= a[i - 1];
  EXPECT(sorted);
  EXPECT(!a.empty() && a.back() < 100'000'000'000);
  EXPECT(e2e::PoissonSchedule(0.0, 10.0, 1).empty());
}

void TestTracer() {
  e2e::Tracer& t = e2e::Tracer::Get();
  {
    e2e::ScopedSpan off("core.off");  // disabled: records nothing.
  }
  EXPECT(t.Spans().empty());
  t.SetEnabled(true);
  {
    e2e::ScopedSpan outer("bench.outer", 3);
    {
      e2e::ScopedSpan inner("serve.inner", 4);
      t.Rename(inner.id(), "serve.renamed");
    }
    std::thread other([] { e2e::ScopedSpan s("serve.other"); });
    other.join();
  }
  t.SetEnabled(false);
  const std::vector<e2e::Span> spans = t.Spans();
  EXPECT(spans.size() == 3);
  if (spans.size() == 3) {
    EXPECT(spans[0].name == "bench.outer" && spans[0].parent == -1 &&
           spans[0].request == 3);
    EXPECT(spans[1].name == "serve.renamed" && spans[1].parent == 0 &&
           spans[1].request == 4);
    // Parents are per thread: a span opened on another thread is a root.
    EXPECT(spans[2].name == "serve.other" && spans[2].parent == -1);
    EXPECT(spans[0].start_ns <= spans[1].start_ns &&
           spans[1].end_ns <= spans[0].end_ns);
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestOverlapFraction();
  TestFreshnessAttribution();
  TestLagAccounting();
  TestPoissonSchedule();
  TestTracer();
  if (g_failures > 0) {
    std::fprintf(stderr, "e2e selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "e2e selftest: all checks passed\n");
  return 0;
}
