// End-to-end benchmark of the EHNA path: generate -> split -> train ->
// checkpoint -> EmbeddingServer::Load -> ingest/refresh -> query, measured
// on two workloads (see e2ebench/README.md for their parameters):
//
//   train         paper-default model on a DBLP-shaped coauthor graph.
//   serve_stream  writes beside reads on a power-law graph.
//
// Usage:
//   ehna_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics with MetricsRegistry off.
// --trace 1 is a separate run that records spans around every call the
// benchmark makes into a library module, snapshots the registry, and
// reports the per-layer metrics; it also writes both to --workdir.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "e2e_core.h"
#include "eval/link_prediction.h"
#include "graph/generators/generators.h"
#include "graph/split.h"
#include "serve/embedding_server.h"
#include "util/metrics.h"

namespace {

using namespace ehna;  // NOLINT(build/namespaces)
using e2e::NowNs;
using e2e::ScopedSpan;

constexpr size_t kTopK = 10;
constexpr double kMinRecall = 0.95;  // the floor serve_test pins.
constexpr size_t kRecallSample = 200;
constexpr size_t kAucPairs = 4000;
constexpr double kHoldoutFraction = 0.2;  // the paper's 80/20 time split.
constexpr int kRestartRepeats = 5;        // Loads timed on train.
constexpr int kFinalizeRepeats = 5;       // timed FinalizeEmbeddings calls.
constexpr size_t kRefreshBatch = 256;     // auto-refresh every 256 edges.

// ------------------------------------------------------------- workloads

enum class GraphKind { kCoauthor, kScale };

struct Workload {
  std::string name;
  GraphKind graph = GraphKind::kCoauthor;
  NodeId nodes = 0;       // kScale.
  size_t base_edges = 0;  // kScale: edges before the stream.
  EhnaConfig cfg;
  /// true: training is the measured window (--seconds of epochs) and the
  /// set-up is generate + split. false: the set-up also trains a light
  /// model, checkpoints it and Loads it.
  bool timed_training = false;
  int setup_repeats = 1;
  /// Serving window: open-loop ingest (edges/s, one thread) beside one
  /// open-loop query thread per entry of `queries`. window_seconds 0 =
  /// --seconds.
  double window_seconds = 0.0;
  double ingest_rate = 0.0;
  struct QueryThread {
    double rate = 0.0;         // q/s
    double exact_share = 0.0;  // share of QueryExact; the rest is Query.
  };
  std::vector<QueryThread> queries;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "train";
    w.graph = GraphKind::kCoauthor;
    w.setup_repeats = 9;  // a few ms each.
    w.cfg.dim = 64;  // paper defaults otherwise: k = l = 10, Q = 5, 2 layers.
    w.cfg.num_threads = 4;
    w.cfg.max_edges_per_epoch = 128;
    w.timed_training = true;
    w.window_seconds = 8.0;
    w.ingest_rate = 150.0;
    w.queries = {{600.0, 0.0}, {600.0, 1.0}};
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "serve_stream";
    w.graph = GraphKind::kScale;
    w.nodes = 10'000;
    w.base_edges = 100'000;
    w.cfg.dim = 32;  // the light model: k = 4, l = 5, Q = 2.
    w.cfg.num_walks = 4;
    w.cfg.walk_length = 5;
    w.cfg.num_negatives = 2;
    w.cfg.epochs = 3;
    w.cfg.max_edges_per_epoch = 1000;
    w.cfg.num_threads = 4;
    w.ingest_rate = 100.0;
    w.setup_repeats = 5;
    w.queries = {{100.0, 0.0}, {100.0, 1.0}};
    out.push_back(w);
  }
  return out;
}

// ---------------------------------------------------------------- helpers

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/e2e_work";
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) { return e2e::Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Turns both recorders on or off together. Called only while no other
/// benchmark thread records.
void SetTracing(bool on) {
  MetricsRegistry::SetEnabled(on);
  e2e::Tracer::Get().SetEnabled(on);
}

/// Sleeps until `deadline_ns`, spinning for the last 200 us so that due
/// times are met to within microseconds rather than the timer slack.
void WaitUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 200'000;
  const int64_t now = NowNs();
  if (deadline_ns - now <= 0) return;
  ScopedSpan idle("loadgen.idle");
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
    if (std::find(order_.begin(), order_.end(), name) == order_.end()) {
      order_.push_back(name);
    }
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "e2e: CHECK FAILED: %s\n", why.c_str());
  }
  bool correct() const { return correct_; }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Print() const {
    std::printf("%-28s %16s  %-6s %s\n", "metric", "value", "unit",
                "samples");
    for (const std::string& name : order_) {
      const Metric& m = metrics_.at(name);
      std::printf("%-28s %16.6g  %-6s %zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < order_.size(); ++i) {
      const Metric& m = metrics_.at(order_[i]);
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      if (i > 0) json += ", ";
      json += "\"" + order_[i] + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Records `s` as a duration summary: "<base>_p50_<unit>" and
/// "<base>_p99_<unit>", each with the sample count. The p99 is only
/// reportable with at least ten samples beyond it; short of that the run
/// names the highest percentile it can report and is marked failed.
void SetLatency(Report* r, const std::string& base, const std::string& unit,
                const std::vector<double>& values) {
  const e2e::Summary s = e2e::Summarize(values);
  r->Set(base + "_p50_" + unit, s.p50, unit, s.n);
  r->Set(base + "_p99_" + unit, s.p99, unit, s.n);
  if (s.top_pct < 99.0) {
    r->Fail(base + ": " + std::to_string(s.n) +
            " samples; p99 needs 1000 (highest reportable percentile " +
            std::to_string(s.top_pct) + ")");
  }
}

// -------------------------------------------------------------- set-up

/// Everything one set-up builds. Heap-allocated so the graph the model and
/// server point at never moves.
struct State {
  TemporalSplit split;
  std::unique_ptr<EhnaModel> model;
  std::unique_ptr<EmbeddingServer> server;
  std::string checkpoint;
  std::vector<double> epoch_rates;  // light training (serve_stream).
  double load_s = 0.0;
};

Result<TemporalGraph> Generate(const Workload& w, uint64_t seed,
                               double seconds) {
  ScopedSpan span("graph.generate");
  switch (w.graph) {
    case GraphKind::kCoauthor:
      return MakePaperDataset(PaperDataset::kDblp, 1.0, seed);
    case GraphKind::kScale: {
      ScaleGraphOptions o;
      o.num_nodes = w.nodes;
      // Room for the whole ingest schedule even if half the stream's edges
      // touch nodes the base graph has not seen (those are not sent).
      const size_t stream =
          static_cast<size_t>(2.5 * w.ingest_rate * seconds) + 1000;
      o.num_edges = w.base_edges + stream;
      o.seed = seed;
      return MakeScaleGraph(o);
    }
  }
  return Status::InvalidArgument("unknown graph kind");
}

double HoldoutFraction(const Workload& w, size_t total_edges) {
  if (w.graph != GraphKind::kScale) return kHoldoutFraction;
  return static_cast<double>(total_edges - w.base_edges) /
         static_cast<double>(total_edges);
}

/// The workload's model config with the run's seed (checkpoints carry it
/// in their fingerprint).
EhnaConfig ModelConfig(const Workload& w, uint64_t seed) {
  EhnaConfig cfg = w.cfg;
  cfg.seed = seed;
  return cfg;
}

ServeOptions MakeServeOptions(const Workload& w, uint64_t seed) {
  ServeOptions o;
  o.config = ModelConfig(w, seed);
  o.refresh_batch = kRefreshBatch;
  return o;
}

Result<std::unique_ptr<EmbeddingServer>> LoadServer(const Workload& w,
                                                    const State& s,
                                                    uint64_t seed,
                                                    double* load_s) {
  TemporalGraph base = s.split.train;  // the server owns its copy.
  const int64_t t0 = NowNs();
  ScopedSpan span("serve.load");
  auto server = EmbeddingServer::Load(s.checkpoint, std::move(base),
                                      MakeServeOptions(w, seed));
  *load_s = Seconds(NowNs() - t0);
  return server;
}

Result<std::unique_ptr<State>> SetUp(const Workload& w, const Args& a,
                                     int repeat) {
  auto s = std::make_unique<State>();
  EHNA_ASSIGN_OR_RETURN(TemporalGraph g, Generate(w, a.seed, a.seconds));
  {
    ScopedSpan span("graph.split");
    TemporalSplitOptions so;
    so.holdout_fraction = HoldoutFraction(w, g.num_edges());
    Rng rng(a.seed ^ 0x53504C4954ULL);
    EHNA_ASSIGN_OR_RETURN(s->split, MakeTemporalSplit(g, so, &rng));
  }
  const EhnaConfig cfg = ModelConfig(w, a.seed);
  s->model = std::make_unique<EhnaModel>(&s->split.train, cfg);
  s->checkpoint = a.workdir + "/" + w.name + "-" + std::to_string(a.seed) +
                  "-" + std::to_string(repeat) + ".ehnc";
  if (w.timed_training) return s;

  for (int e = 0; e < cfg.epochs; ++e) {
    ScopedSpan span("core.train_epoch");
    const int64_t t0 = NowNs();
    const EhnaModel::EpochStats st = s->model->TrainEpoch();
    s->epoch_rates.push_back(static_cast<double>(st.edges) /
                             Seconds(NowNs() - t0));
  }
  {
    ScopedSpan span("core.checkpoint_save");
    EHNA_RETURN_NOT_OK(s->model->SaveCheckpoint(s->checkpoint));
  }
  EHNA_ASSIGN_OR_RETURN(s->server, LoadServer(w, *s, a.seed, &s->load_s));
  return s;
}

// ------------------------------------------------------------- serving

struct Request {
  int64_t due_ns = 0;  // from the window start.
  NodeId node = 0;
  bool exact = false;
  uint64_t id = 0;
};

struct QueryLog {
  std::vector<double> ann_us, exact_us;
  std::vector<int64_t> due_ns, sent_ns;
  std::vector<std::pair<int64_t, int64_t>> due_to_end;
  uint64_t attempted = 0, failed = 0;
};

struct IngestLog {
  std::vector<e2e::IngestCall> calls;
  std::vector<int64_t> due_ns, sent_ns;
  std::vector<TemporalEdge> accepted;
  /// [begin, end) of `accepted` that the most recent refresh consumed.
  size_t last_batch_begin = 0, last_batch_end = 0;
  size_t open_batch_begin = 0;
  uint64_t attempted = 0, failed = 0;
};

void RunQueries(EmbeddingServer* server, const std::vector<Request>& reqs,
                int64_t t0, QueryLog* log) {
  for (const Request& r : reqs) {
    const int64_t due = t0 + r.due_ns;
    WaitUntil(due);
    const int64_t sent = NowNs();
    bool ok = false;
    {
      ScopedSpan span(r.exact ? "serve.query_exact" : "serve.query", r.id);
      ok = r.exact ? server->QueryExact(r.node, kTopK).ok()
                   : server->Query(r.node, kTopK).ok();
    }
    const int64_t end = NowNs();
    const double us = static_cast<double>(end - due) / 1e3;
    ++log->attempted;
    log->due_ns.push_back(due);
    log->sent_ns.push_back(sent);
    log->due_to_end.emplace_back(due, end);
    if (!ok) {
      ++log->failed;
      continue;
    }
    (r.exact ? log->exact_us : log->ann_us).push_back(us);
  }
}

void RunIngest(EmbeddingServer* server, const std::vector<TemporalEdge>& edges,
               const std::vector<int64_t>& due_ns, int64_t t0,
               IngestLog* log) {
  for (size_t i = 0; i < due_ns.size() && i < edges.size(); ++i) {
    const int64_t due = t0 + due_ns[i];
    WaitUntil(due);
    const int64_t sent = NowNs();
    const uint64_t before = server->stats().refreshes;
    Status st;
    {
      ScopedSpan span("serve.ingest", i + 1);
      st = server->Ingest(edges[i]);
      if (server->stats().refreshes > before) {
        e2e::Tracer::Get().Rename(span.id(), "serve.ingest_refresh");
      }
    }
    const int64_t end = NowNs();
    const uint64_t after = server->stats().refreshes;
    ++log->attempted;
    log->due_ns.push_back(due);
    log->sent_ns.push_back(sent);
    if (!st.ok()) {
      ++log->failed;
      std::fprintf(stderr, "e2e: Ingest failed: %s\n", st.ToString().c_str());
      continue;
    }
    log->accepted.push_back(edges[i]);
    log->calls.push_back({due, before, after, end});
    if (after > before) {
      log->last_batch_begin = log->open_batch_begin;
      log->last_batch_end = log->accepted.size();
      log->open_batch_begin = log->accepted.size();
    }
  }
}

/// Refreshes whatever the schedule left pending; those edges are excluded
/// from freshness.
Status FlushPending(EmbeddingServer* server, IngestLog* log) {
  const uint64_t before = server->stats().refreshes;
  ScopedSpan span("serve.refresh");
  ++log->attempted;
  Status st = server->Refresh();
  if (!st.ok()) {
    ++log->failed;
    return st;
  }
  if (server->stats().refreshes > before) {
    log->last_batch_begin = log->open_batch_begin;
    log->last_batch_end = log->accepted.size();
    log->open_batch_begin = log->accepted.size();
  }
  return Status::OK();
}

std::vector<Request> QuerySchedule(double rate, double seconds,
                                   double exact_share, NodeId num_nodes,
                                   uint64_t seed, uint64_t first_id) {
  std::vector<Request> out;
  e2e::SplitMix64 pick{seed ^ 0x51554552595FULL};
  for (int64_t due : e2e::PoissonSchedule(rate, seconds, seed)) {
    Request r;
    r.due_ns = due;
    r.node = static_cast<NodeId>(pick.Next() % num_nodes);
    r.exact = pick.Uniform() < exact_share;
    r.id = first_id + out.size();
    out.push_back(r);
  }
  return out;
}

// ----------------------------------------------------------- the checks

/// Mean recall@10 of the served ANN route against the fp32 exact oracle
/// on a fixed sample of nodes with history.
double RecallAt10(EmbeddingServer* server, const TemporalGraph& base,
                  uint64_t seed, uint64_t* attempted, uint64_t* failed) {
  e2e::SplitMix64 pick{seed ^ 0x524543414C4CULL};
  double total = 0.0;
  size_t done = 0;
  for (size_t tries = 0; done < kRecallSample && tries < 100 * kRecallSample;
       ++tries) {
    const NodeId v = static_cast<NodeId>(pick.Next() % base.num_nodes());
    if (base.Degree(v) == 0) continue;
    auto ann = server->Query(v, kTopK);
    auto exact = server->QueryExactFp32(v, kTopK);
    *attempted += 2;
    if (!ann.ok() || !exact.ok()) {
      *failed += (!ann.ok()) + (!exact.ok());
      continue;
    }
    size_t hit = 0;
    for (const Neighbor& a : ann.value()) {
      for (const Neighbor& b : exact.value()) hit += a.node == b.node;
    }
    const size_t denom = std::max<size_t>(1, exact.value().size());
    total += static_cast<double>(hit) / static_cast<double>(denom);
    ++done;
  }
  return done == 0 ? 0.0 : total / static_cast<double>(done);
}

/// The endpoints of the last refresh batch must byte-equal an offline
/// InferenceEngine::RefreshInto over FromEdges(base + stream), computed
/// from the restored checkpoint (the serve_demo --smoke oracle).
Status CheckLastBatch(const Workload& w, const Args& a, const State& s,
                      const IngestLog& log) {
  if (log.last_batch_end == log.last_batch_begin) {
    return Status::FailedPrecondition("no refresh happened");
  }
  const TemporalGraph& base = s.split.train;
  std::vector<TemporalEdge> all = base.edges();
  all.insert(all.end(), log.accepted.begin(), log.accepted.end());
  EHNA_ASSIGN_OR_RETURN(
      TemporalGraph full,
      TemporalGraph::FromEdges(std::move(all), base.num_nodes(),
                               base.directed()));
  const EhnaConfig cfg = ModelConfig(w, a.seed);
  EhnaModel offline(&base, cfg);
  EHNA_RETURN_NOT_OK(offline.RestoreCheckpoint(s.checkpoint));
  InferenceEngine engine(&base, offline.embedding(), offline.aggregator(), cfg);
  engine.RebindGraph(&full);
  std::vector<NodeId> endpoints;
  for (size_t i = log.last_batch_begin; i < log.last_batch_end; ++i) {
    endpoints.push_back(log.accepted[i].src);
    endpoints.push_back(log.accepted[i].dst);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  Tensor oracle(full.num_nodes(), cfg.dim);
  engine.RefreshInto(endpoints, &oracle);
  const Tensor served = s.server->ServingEmbeddings();
  const size_t row_bytes = static_cast<size_t>(cfg.dim) * sizeof(float);
  for (NodeId v : endpoints) {
    if (std::memcmp(served.Row(v), oracle.Row(v), row_bytes) != 0) {
      return Status::Internal("served row of endpoint " + std::to_string(v) +
                              " differs from the offline recompute");
    }
  }
  std::fprintf(stderr, "e2e: last refresh batch: %zu edges, %zu endpoints "
               "byte-equal to the offline recompute\n",
               log.last_batch_end - log.last_batch_begin, endpoints.size());
  return Status::OK();
}

// --------------------------------------------------------- trace output

Status WriteSpans(const std::string& path, const std::vector<e2e::Span>& spans,
                  int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  const std::vector<int64_t> self = e2e::SelfTimesNs(spans);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << (s.start_ns - origin_ns) / 1000
        << ", \"end_us\": " << (s.end_ns - origin_ns) / 1000
        << ", \"self_us\": " << self[i] / 1000 << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

std::vector<double> SpanDurations(const std::vector<e2e::Span>& spans,
                                  std::string_view name, double scale) {
  std::vector<double> out;
  for (const e2e::Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
    }
  }
  return out;
}

double HistMeanUs(const MetricsSnapshot& snap,
                  std::initializer_list<std::string_view> names) {
  uint64_t sum = 0, count = 0;
  for (std::string_view n : names) {
    if (const HistogramData* h = snap.Histogram(n)) {
      sum += h->sum();
      count += h->count();
    }
  }
  return count == 0 ? 0.0 : static_cast<double>(sum) / 1e3 /
                                static_cast<double>(count);
}

struct TraceInputs {
  std::vector<e2e::Span> spans;
  MetricsSnapshot snapshot;
  int64_t window_begin_ns = 0, window_end_ns = 0;
  int64_t untraced_ns = 0;  // time inside the window with tracing off.
  double overhead_frac = 0.0;
  uint64_t ingested = 0, refreshed_nodes = 0;
  double lag_p99_ms = 0.0;
  uint64_t sent = 0, failed = 0;
  /// [due, completion] of every query in the window.
  std::vector<std::pair<int64_t, int64_t>> query_waits;
};

void ReportLayers(const TraceInputs& t, Report* r) {
  const std::vector<e2e::Span>& spans = t.spans;
  const MetricsSnapshot& snap = t.snapshot;
  auto sum = [&](std::string_view name, double scale) {
    const std::vector<double> d = SpanDurations(spans, name, scale);
    return std::accumulate(d.begin(), d.end(), 0.0);
  };
  auto median = [&](std::string_view name, double scale) {
    return Median(SpanDurations(spans, name, scale));
  };
  auto count = [&](std::string_view name) {
    return SpanDurations(spans, name, 1.0).size();
  };

  r->Set("graph.generate_s", sum("graph.generate", 1e-9), "s",
         count("graph.generate"));

  const double walk_s = snap.PhaseSeconds("train.phase.walk_sampling") +
                        snap.PhaseSeconds("walk.phase.sample_batch");
  const uint64_t steps = snap.CounterValue("walk.temporal.steps");
  r->Set("walk.busy_s", walk_s, "s");
  r->Set("walk.steps", static_cast<double>(steps), "count");
  r->Set("walk.ns_per_step",
         steps == 0 ? 0.0 : walk_s * 1e9 / static_cast<double>(steps), "ns");

  r->Set("core.train_epoch_s", median("core.train_epoch", 1e-9), "s",
         count("core.train_epoch"));
  r->Set("core.fwd_bwd_busy_s",
         snap.PhaseSeconds("train.phase.forward_backward"), "s");
  r->Set("core.grad_reduce_busy_s",
         snap.PhaseSeconds("train.phase.grad_reduce"), "s");
  r->Set("core.optimizer_busy_s",
         snap.PhaseSeconds("train.phase.optimizer_step"), "s");
  r->Set("core.finalize_s", median("core.finalize", 1e-9), "s",
         count("core.finalize"));
  r->Set("core.checkpoint_save_s", median("core.checkpoint_save", 1e-9), "s",
         count("core.checkpoint_save"));
  const uint64_t aggs = snap.CounterValue("agg.aggregations");
  r->Set("core.aggregations", static_cast<double>(aggs), "count");
  r->Set("core.fallback_frac",
         aggs == 0 ? 0.0
                   : static_cast<double>(snap.CounterValue("agg.fallbacks")) /
                         static_cast<double>(aggs),
         "ratio");

  const double gemm_s = snap.PhaseSeconds("kernels.phase.gemm");
  const double gflop =
      static_cast<double>(snap.CounterValue("kernels.gemm.flops")) * 1e-9;
  r->Set("nn.lstm_busy_s", snap.PhaseSeconds("kernels.phase.lstm_step"), "s");
  r->Set("nn.gemm_busy_s", gemm_s, "s");
  r->Set("nn.attention_busy_s", snap.PhaseSeconds("kernels.phase.attention"),
         "s");
  r->Set("nn.gemm_gflop", gflop, "GFLOP");
  // The GEMM kernels run inside both the MatMul and the LSTM-step phases.
  const double gemm_phases_s = gemm_s + snap.PhaseSeconds("kernels.phase.lstm_step");
  r->Set("nn.gemm_gflops_per_s", gemm_phases_s > 0 ? gflop / gemm_phases_s : 0.0,
         "GFLOP/s");

  r->Set("eval.ann_build_s", snap.PhaseSeconds("eval.phase.ann_build"), "s");
  r->Set("eval.ann_query_busy_us",
         HistMeanUs(snap, {"eval.phase.ann_query",
                           "eval.phase.ann_query_quantized"}),
         "us");
  r->Set("eval.exact_scan_busy_us",
         HistMeanUs(snap, {"eval.phase.knn_query",
                           "eval.phase.knn_query_quantized"}),
         "us");

  r->Set("serve.refresh_ms", median("serve.ingest_refresh", 1e-6), "ms",
         count("serve.ingest_refresh"));
  r->Set("serve.refreshed_per_edge",
         t.ingested == 0 ? 0.0
                         : static_cast<double>(t.refreshed_nodes) /
                               static_cast<double>(t.ingested),
         "ratio");
  r->Set("serve.ingest_us", median("serve.ingest", 1e-3), "us",
         count("serve.ingest"));
  r->Set("serve.query_call_us", median("serve.query", 1e-3), "us",
         count("serve.query"));
  std::vector<std::pair<int64_t, int64_t>> refreshes;
  for (const e2e::Span& s : spans) {
    if (s.name == "serve.ingest_refresh" || s.name == "serve.refresh") {
      refreshes.emplace_back(s.start_ns, s.end_ns);
    }
  }
  r->Set("serve.query_blocked_frac",
         e2e::OverlapFraction(t.query_waits, refreshes), "ratio",
         t.query_waits.size());

  r->Set("loadgen.lag_p99_ms", t.lag_p99_ms, "ms", t.sent);
  r->Set("loadgen.sent", static_cast<double>(t.sent), "count");
  r->Set("loadgen.failed", static_cast<double>(t.failed), "count");

  // Layer self times, and the share of the traced wall time that no layer
  // span (nor the generator's idle wait) covers.
  const std::vector<int64_t> self = e2e::SelfTimesNs(spans);
  std::map<std::string, double> layer_self;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer(e2e::LayerOf(spans[i].name));
    if (layer == "bench") continue;
    layer_self[layer] += Seconds(self[i]);
    covered.emplace_back(spans[i].start_ns, spans[i].end_ns);
  }
  for (const char* layer : {"graph", "core", "eval", "serve"}) {
    r->Set(std::string(layer) + ".self_s", layer_self[layer], "s");
  }
  const double wall =
      Seconds(t.window_end_ns - t.window_begin_ns - t.untraced_ns);
  const double cov = Seconds(e2e::UnionLength(std::move(covered)));
  r->Set("trace.overhead_frac", t.overhead_frac, "ratio");
  r->Set("trace.unattributed_frac",
         wall > 0 ? std::max(0.0, 1.0 - cov / wall) : 0.0, "ratio");
}

// ------------------------------------------------------------- the run

int Run(const Workload& w, const Args& a) {
  Report report;
  TraceInputs trace;
  std::error_code ec;
  std::filesystem::create_directories(a.workdir, ec);
  MetricsRegistry::SetEnabled(false);
  MetricsRegistry::Global().Reset();
  auto fail = [](const Status& st, const char* what) {
    std::fprintf(stderr, "e2e: %s: %s\n", what, st.ToString().c_str());
    return 1;
  };

  // --- set-up: generate, split (+ train, checkpoint, Load), repeated;
  //     the traced run sets up once.
  trace.window_begin_ns = NowNs();
  SetTracing(a.trace);
  const int repeats = a.trace ? 1 : w.setup_repeats;
  std::vector<double> setup_s, light_rates, load_s;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < repeats; ++rep) {
    if (state) std::filesystem::remove(state->checkpoint, ec);
    state.reset();
    const int64_t t0 = NowNs();
    ScopedSpan span("bench.setup");
    auto s = SetUp(w, a, rep);
    if (!s.ok()) return fail(s.status(), "set-up failed");
    state = std::move(s).value();
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!w.timed_training) {
      light_rates.insert(light_rates.end(), state->epoch_rates.begin(),
                         state->epoch_rates.end());
      load_s.push_back(state->load_s);
    }
  }
  report.Set("setup_s", Median(setup_s), "s", setup_s.size());
  State& s = *state;
  std::fprintf(stderr,
               "e2e: %s seed %" PRIu64 ": %u nodes, %zu base edges, %zu "
               "stream edges\n",
               w.name.c_str(), a.seed, s.split.train.num_nodes(),
               s.split.train.num_edges(), s.split.test_positive.size());

  // --- training window (train) or the set-up's light training rate.
  if (w.timed_training) {
    // Traced runs alternate untraced and traced epochs; the ratio of their
    // median times is the tracing overhead.
    std::vector<double> rates, plain_s, traced_s;
    const int64_t start = NowNs();
    for (int e = 0; Seconds(NowNs() - start) < a.seconds || e < 2; ++e) {
      const bool traced = a.trace && e % 2 == 1;
      if (a.trace) SetTracing(traced);
      const int64_t t0 = NowNs();
      EhnaModel::EpochStats st;
      {
        ScopedSpan span("core.train_epoch");
        st = s.model->TrainEpoch();
      }
      const double dt = Seconds(NowNs() - t0);
      rates.push_back(static_cast<double>(st.edges) / dt);
      (traced ? traced_s : plain_s).push_back(dt);
      if (a.trace && !traced) trace.untraced_ns += NowNs() - t0;
    }
    SetTracing(a.trace);
    report.Set("train_edges_per_s", Median(rates), "edges/s", rates.size());
    if (a.trace && !plain_s.empty() && !traced_s.empty()) {
      trace.overhead_frac = Median(traced_s) / Median(plain_s) - 1.0;
    }
    ScopedSpan span("core.checkpoint_save");
    if (auto st = s.model->SaveCheckpoint(s.checkpoint); !st.ok()) {
      return fail(st, "SaveCheckpoint");
    }
  } else {
    report.Set("train_edges_per_s", Median(light_rates), "edges/s",
               light_rates.size());
  }

  // --- §IV.D final pass and link prediction on the holdout. A repeat
  // re-finalizes the written-back table at the same cost; the AUC uses the
  // first pass.
  Tensor final_emb;
  std::vector<double> finalize_s;
  for (int rep = 0; rep < kFinalizeRepeats; ++rep) {
    const int64_t t0 = NowNs();
    ScopedSpan span("core.finalize");
    Tensor emb = s.model->FinalizeEmbeddings();
    finalize_s.push_back(Seconds(NowNs() - t0));
    if (rep == 0) final_emb = std::move(emb);
  }
  report.Set("finalize_s", Median(finalize_s), "s", finalize_s.size());
  // AUC over the first kAucPairs held-out positives and as many negatives
  // (the whole holdout on train).
  double auc = 0.0;
  size_t auc_pairs = 0;
  {
    TemporalSplit eval_split;
    const size_t np = std::min(kAucPairs, s.split.test_positive.size());
    const size_t nn = std::min(kAucPairs, s.split.test_negative.size());
    eval_split.test_positive.assign(s.split.test_positive.begin(),
                                    s.split.test_positive.begin() + np);
    eval_split.test_negative.assign(s.split.test_negative.begin(),
                                    s.split.test_negative.begin() + nn);
    auc_pairs = np + nn;
    ScopedSpan span("eval.linkpred");
    LinkPredictionOptions lo;
    lo.repeats = 1;
    lo.seed = a.seed;
    auto m = EvaluateLinkPrediction(eval_split, final_emb,
                                    EdgeOperator::kHadamard, lo);
    if (!m.ok()) return fail(m.status(), "link prediction");
    auc = m.value().auc;
  }
  report.Set("linkpred_auc", auc, "AUC", auc_pairs);
  // serve_stream's light model is trained for serving, not accuracy;
  // only the paper-config model must beat chance.
  if (w.timed_training && !(auc > 0.5)) {
    report.Fail("linkpred_auc " + std::to_string(auc) + " <= 0.5");
  }

  // --- server restart (train) or the set-up's Load times.
  for (int rep = 0; w.timed_training && rep < kRestartRepeats; ++rep) {
    s.server.reset();
    double t = 0.0;
    auto server = LoadServer(w, s, a.seed, &t);
    if (!server.ok()) return fail(server.status(), "Load");
    s.server = std::move(server).value();
    load_s.push_back(t);
  }
  report.Set("load_s", Median(load_s), "s", load_s.size());
  EmbeddingServer* server = s.server.get();
  const EmbeddingServer::Stats stats0 = server->stats();

  // --- serving window: open-loop ingest beside open-loop queries.
  const double window = w.window_seconds > 0 ? w.window_seconds : a.seconds;
  const std::vector<TemporalEdge>& stream = s.split.test_positive;
  // RunIngest stops early if the holdout is shorter than the schedule.
  const std::vector<int64_t> ingest_due =
      e2e::PoissonSchedule(w.ingest_rate, window, a.seed ^ 0x494E47ULL);
  const size_t query_threads = w.queries.size();
  std::vector<std::vector<Request>> query_sched(query_threads);
  for (size_t t = 0; t < query_threads; ++t) {
    query_sched[t] = QuerySchedule(w.queries[t].rate, window,
                                   w.queries[t].exact_share, server->num_nodes(),
                                   a.seed * 31 + 7 + t,
                                   uint64_t{1} << 40 | uint64_t(t) << 32);
  }
  IngestLog ingest;
  std::vector<QueryLog> qlogs(query_threads);
  {
    ScopedSpan span("bench.window");
    const int64_t t0 = NowNs() + 20'000'000;  // 20 ms for thread start.
    std::vector<std::thread> threads;
    if (!ingest_due.empty()) {
      threads.emplace_back(RunIngest, server, std::cref(stream),
                           std::cref(ingest_due), t0, &ingest);
    }
    for (size_t t = 0; t < query_threads; ++t) {
      threads.emplace_back(RunQueries, server, std::cref(query_sched[t]), t0,
                           &qlogs[t]);
    }
    for (std::thread& th : threads) th.join();
  }
  if (!ingest.calls.empty()) {
    if (auto st = FlushPending(server, &ingest); !st.ok()) {
      std::fprintf(stderr, "e2e: Refresh failed: %s\n", st.ToString().c_str());
    }
  }
  trace.window_end_ns = NowNs();
  if (a.trace) {
    trace.snapshot = MetricsRegistry::Global().Snapshot();
    trace.spans = e2e::Tracer::Get().Spans();
  }
  SetTracing(false);
  const EmbeddingServer::Stats stats1 = server->stats();
  trace.ingested = stats1.ingested_edges - stats0.ingested_edges;
  trace.refreshed_nodes = stats1.refreshed_nodes - stats0.refreshed_nodes;

  // --- end-to-end serving metrics and open-loop hygiene.
  QueryLog q;
  for (const QueryLog& l : qlogs) {
    q.ann_us.insert(q.ann_us.end(), l.ann_us.begin(), l.ann_us.end());
    q.exact_us.insert(q.exact_us.end(), l.exact_us.begin(), l.exact_us.end());
    q.attempted += l.attempted;
    q.failed += l.failed;
    const e2e::LagReport lag = e2e::AccountLag(l.due_ns, l.sent_ns);
    std::fprintf(stderr, "e2e: query generator: %zu sent, lag p99 %.3f ms\n",
                 l.due_ns.size(), lag.p99_ms);
    if (lag.growing) report.Fail("query generator backlog grew over the run");
    q.due_ns.insert(q.due_ns.end(), l.due_ns.begin(), l.due_ns.end());
    trace.query_waits.insert(trace.query_waits.end(), l.due_to_end.begin(),
                             l.due_to_end.end());
    q.sent_ns.insert(q.sent_ns.end(), l.sent_ns.begin(), l.sent_ns.end());
  }
  const e2e::LagReport ingest_lag =
      e2e::AccountLag(ingest.due_ns, ingest.sent_ns);
  std::fprintf(stderr, "e2e: ingest generator: %zu sent, lag p99 %.3f ms\n",
               ingest.due_ns.size(), ingest_lag.p99_ms);
  if (ingest_lag.growing) report.Fail("ingest backlog grew over the run");
  std::vector<int64_t> all_due = q.due_ns, all_sent = q.sent_ns;
  all_due.insert(all_due.end(), ingest.due_ns.begin(), ingest.due_ns.end());
  all_sent.insert(all_sent.end(), ingest.sent_ns.begin(), ingest.sent_ns.end());
  std::vector<double> lag_ms(all_due.size());
  for (size_t i = 0; i < all_due.size(); ++i) {
    lag_ms[i] = static_cast<double>(all_sent[i] - all_due[i]) / 1e6;
  }
  trace.lag_p99_ms = e2e::Quantile(lag_ms, 0.99);
  trace.sent = all_due.size();
  trace.failed = q.failed + ingest.failed;

  SetLatency(&report, "query", "us", q.ann_us);
  SetLatency(&report, "exact", "us", q.exact_us);
  size_t pending = 0;
  SetLatency(&report, "freshness", "ms",
             e2e::FreshnessMs(ingest.calls, &pending));
  report.CountOps(q.attempted + ingest.attempted, q.failed + ingest.failed);

  // --- correctness checks (untraced, outside the measured window).
  uint64_t check_attempted = 0, check_failed = 0;
  const double recall = RecallAt10(server, s.split.train, a.seed,
                                   &check_attempted, &check_failed);
  report.CountOps(check_attempted, check_failed);
  report.Set("recall_at10", recall, "ratio", kRecallSample);
  if (recall < kMinRecall) {
    report.Fail("recall_at10 " + std::to_string(recall) + " < 0.95");
  }
  if (auto st = CheckLastBatch(w, a, s, ingest); !st.ok()) {
    report.Fail("refresh check: " + st.ToString());
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove(s.checkpoint, ec);

  if (a.trace) {
    // Query-path overhead, measured closed-loop on identical calls with
    // tracing off and on, alternated twice. (train measures it on epochs.)
    if (!w.timed_training) {
      std::vector<NodeId> nodes;
      e2e::SplitMix64 pick{a.seed ^ 0x4F56455248ULL};
      for (int i = 0; i < 300; ++i) {
        nodes.push_back(static_cast<NodeId>(pick.Next() % server->num_nodes()));
      }
      int64_t plain = 0, traced = 0;
      for (int round = -1; round < 4; ++round) {  // round -1 warms up.
        SetTracing(round % 2 == 1);
        const int64_t t0 = NowNs();
        for (size_t i = 0; i < nodes.size(); ++i) {
          ScopedSpan span(i % 5 == 0 ? "serve.query_exact" : "serve.query");
          if (i % 5 == 0) {
            (void)server->QueryExact(nodes[i], kTopK);
          } else {
            (void)server->Query(nodes[i], kTopK);
          }
        }
        if (round >= 0) (round % 2 == 1 ? traced : plain) += NowNs() - t0;
      }
      SetTracing(false);
      trace.overhead_frac =
          static_cast<double>(traced) / static_cast<double>(plain) - 1.0;
    }
    Report layers;
    ReportLayers(trace, &layers);
    const std::string stem = a.workdir + "/trace-" + w.name + "-" +
                             std::to_string(a.seed);
    if (auto st = WriteSpans(stem + ".spans.json", trace.spans,
                             trace.window_begin_ns);
        !st.ok()) {
      return fail(st, "writing spans");
    }
    if (auto st = trace.snapshot.WriteJson(stem + ".metrics.json"); !st.ok()) {
      return fail(st, "writing the registry snapshot");
    }
    std::fprintf(stderr, "e2e: wrote %s.{spans,metrics}.json\n", stem.c_str());
    layers.CountOps(q.attempted + ingest.attempted + check_attempted,
                    q.failed + ingest.failed + check_failed);
    if (!report.correct()) layers.Fail("see the checks above");
    layers.Print();
    return 0;
  }
  report.Print();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ehna_e2e --workload <train|serve_stream> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) return Run(w, args);
  }
  std::fprintf(stderr, "e2e: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
