// Interactive embedding-serving demo: trains a small EHNA model on a
// generated co-author network, checkpoints it, loads the checkpoint into an
// EmbeddingServer, and then speaks a line protocol on stdin:
//
//   INGEST <u> <v> <t> [w]   append a timestamped edge to the live overlay
//   QUERY <v> [k]            ANN top-k nearest neighbors of node v
//   EXACT <v> [k]            exact-scan top-k (the recall oracle)
//   SCORE <u> <v>            link score between two nodes
//   REFRESH                  compact + incrementally re-finalize affected nodes
//   STATS                    server counters
//   QUIT                     exit
//
// Every token must parse whole and a line may carry no extra tokens;
// anything else answers `ERR usage: ...` and changes nothing.
//
// `serve_demo --smoke` instead runs a scripted end-to-end check (used by
// CI): ingest a stream of edges, refresh, and verify the served embeddings
// against a from-scratch offline recompute — bitwise for refreshed nodes —
// plus ANN-vs-exact agreement. Exits non-zero on any mismatch.
//
// `--precision=fp32|int8|bf16` selects the serving read-path tier
// (DESIGN.md §14). Under a quantized tier the smoke additionally verifies
// that the server's quantized mirror is byte-identical to quantizing the
// served fp32 matrix offline, and that the quantized exact scan agrees
// with the fp32 oracle at recall@10 >= 0.99.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "graph/generators/generators.h"
#include "serve/embedding_server.h"

namespace {

using namespace ehna;

struct TrainedServer {
  TemporalGraph graph;
  EhnaConfig cfg;
  std::string ckpt;
  std::unique_ptr<EmbeddingServer> server;
};

bool BuildServer(TrainedServer* out, size_t refresh_batch, size_t nprobe = 0,
                 ServePrecision precision = ServePrecision::kFp32) {
  CoauthorGraphOptions gen;
  gen.num_papers = 600;
  gen.seed = 5;
  auto graph_or = MakeCoauthorGraph(gen);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return false;
  }
  out->graph = std::move(graph_or).value();

  out->cfg.dim = 16;
  out->cfg.num_walks = 4;
  out->cfg.walk_length = 5;
  out->cfg.num_negatives = 2;
  out->cfg.epochs = 2;
  out->cfg.max_edges_per_epoch = 600;
  out->cfg.seed = 12;

  std::fprintf(stderr, "training on %zu edges / %u nodes...\n",
               out->graph.num_edges(), out->graph.num_nodes());
  EhnaModel model(&out->graph, out->cfg);
  model.Train();
  out->ckpt =
      (std::filesystem::temp_directory_path() / "ehna_serve_demo.ehnc")
          .string();
  if (auto st = model.SaveCheckpoint(out->ckpt); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return false;
  }

  ServeOptions opt;
  opt.config = out->cfg;
  opt.refresh_batch = refresh_batch;
  opt.ann.nprobe = nprobe;
  opt.precision = precision;
  auto server_or = EmbeddingServer::Load(out->ckpt, out->graph, opt);
  if (!server_or.ok()) {
    std::fprintf(stderr, "%s\n", server_or.status().ToString().c_str());
    return false;
  }
  out->server = std::move(server_or).value();
  std::fprintf(stderr, "serving %zu nodes\n", out->server->num_nodes());
  return true;
}

// Parses one whole protocol token as a T. A token that is not entirely a
// T — trailing characters, a sign on an unsigned id, out of range — fails
// rather than reading as 0 the way a failed `>>` does.
template <typename T>
bool ParseToken(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

void PrintNeighbors(const Result<std::vector<Neighbor>>& res) {
  if (!res.ok()) {
    std::printf("ERR %s\n", res.status().ToString().c_str());
    return;
  }
  std::printf("OK");
  for (const Neighbor& nb : res.value()) {
    std::printf(" %u:%.6f", nb.node, nb.score);
  }
  std::printf("\n");
}

int RunRepl(ServePrecision precision) {
  TrainedServer ts;
  if (!BuildServer(&ts, /*refresh_batch=*/256, /*nprobe=*/0, precision)) {
    return 1;
  }
  EmbeddingServer& server = *ts.server;
  std::fprintf(stderr,
               "commands: INGEST u v t [w] | QUERY v [k] | EXACT v [k] | "
               "SCORE u v | REFRESH | STATS | QUIT\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::vector<std::string> tok;
    for (std::string t; in >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;
    const std::string& cmd = tok[0];
    if (cmd == "INGEST" || cmd == "ingest") {
      NodeId u, v;
      double t;
      float w = 1.0f;
      if ((tok.size() != 4 && tok.size() != 5) || !ParseToken(tok[1], &u) ||
          !ParseToken(tok[2], &v) || !ParseToken(tok[3], &t) ||
          (tok.size() == 5 && !ParseToken(tok[4], &w))) {
        std::printf("ERR usage: INGEST u v t [w]\n");
        continue;
      }
      Status st = server.Ingest({u, v, t, w});
      std::printf("%s\n", st.ok() ? "OK" : ("ERR " + st.ToString()).c_str());
    } else if (cmd == "QUERY" || cmd == "query" || cmd == "EXACT" ||
               cmd == "exact") {
      NodeId v;
      size_t k = 10;
      if ((tok.size() != 2 && tok.size() != 3) || !ParseToken(tok[1], &v) ||
          (tok.size() == 3 && !ParseToken(tok[2], &k))) {
        std::printf("ERR usage: %s v [k]\n", cmd.c_str());
        continue;
      }
      const bool exact = (cmd == "EXACT" || cmd == "exact");
      PrintNeighbors(exact ? server.QueryExact(v, k) : server.Query(v, k));
    } else if (cmd == "SCORE" || cmd == "score") {
      NodeId u, v;
      if (tok.size() != 3 || !ParseToken(tok[1], &u) ||
          !ParseToken(tok[2], &v)) {
        std::printf("ERR usage: SCORE u v\n");
        continue;
      }
      auto score = server.LinkScore(u, v);
      if (score.ok()) {
        std::printf("OK %.6f\n", score.value());
      } else {
        std::printf("ERR %s\n", score.status().ToString().c_str());
      }
    } else if (cmd != "QUIT" && cmd != "quit" && cmd != "REFRESH" &&
               cmd != "refresh" && cmd != "STATS" && cmd != "stats") {
      std::printf("ERR unknown command %s\n", cmd.c_str());
    } else if (tok.size() != 1) {
      std::printf("ERR usage: %s\n", cmd.c_str());
    } else if (cmd == "QUIT" || cmd == "quit") {
      break;
    } else if (cmd == "REFRESH" || cmd == "refresh") {
      Status st = server.Refresh();
      std::printf("%s\n", st.ok() ? "OK" : ("ERR " + st.ToString()).c_str());
    } else if (cmd == "STATS" || cmd == "stats") {
      const auto s = server.stats();
      std::printf("OK ingested=%llu pending=%llu refreshes=%llu "
                  "refreshed_nodes=%llu queries=%llu nodes=%llu edges=%llu\n",
                  static_cast<unsigned long long>(s.ingested_edges),
                  static_cast<unsigned long long>(s.pending_edges),
                  static_cast<unsigned long long>(s.refreshes),
                  static_cast<unsigned long long>(s.refreshed_nodes),
                  static_cast<unsigned long long>(s.queries),
                  static_cast<unsigned long long>(s.num_nodes),
                  static_cast<unsigned long long>(s.num_edges));
    }
  }
  std::filesystem::remove(ts.ckpt);
  return 0;
}

// Byte-level equality of two quantized mirrors (codes + per-row metadata).
bool SameQuantizedBytes(const QuantizedMatrix& a, const QuantizedMatrix& b) {
  if (a.precision() != b.precision() || a.rows() != b.rows() ||
      a.dim() != b.dim()) {
    return false;
  }
  const size_t n = static_cast<size_t>(a.rows());
  const size_t nd = n * static_cast<size_t>(a.dim());
  switch (a.precision()) {
    case ServePrecision::kInt8:
      if (std::memcmp(a.DataI8(), b.DataI8(), nd) != 0) return false;
      for (size_t r = 0; r < n; ++r) {
        const float as = a.scale(static_cast<int64_t>(r));
        const float bs = b.scale(static_cast<int64_t>(r));
        if (std::memcmp(&as, &bs, sizeof(float)) != 0) return false;
        if (a.sqnorm_i32(static_cast<int64_t>(r)) !=
            b.sqnorm_i32(static_cast<int64_t>(r))) {
          return false;
        }
      }
      return true;
    case ServePrecision::kBf16:
      if (std::memcmp(a.DataBf16(), b.DataBf16(), nd * 2) != 0) return false;
      for (size_t r = 0; r < n; ++r) {
        const double an = a.sqnorm(static_cast<int64_t>(r));
        const double bn = b.sqnorm(static_cast<int64_t>(r));
        if (std::memcmp(&an, &bn, sizeof(double)) != 0) return false;
      }
      return true;
    case ServePrecision::kFp32:
      return true;
  }
  return false;
}

// Scripted end-to-end check for CI: every claim the serving subsystem makes
// is verified against a from-scratch offline recompute.
int RunSmoke(ServePrecision precision) {
  TrainedServer ts;
  // Manual refresh only, so ALL affected nodes are re-finalized against the
  // final graph — the precondition for exact offline comparison. The demo
  // graph is tiny (a few hundred nodes, ~15 IVF cells), so probe half the
  // cells; the default nlist/4 is tuned for serving-scale indexes.
  if (!BuildServer(&ts, /*refresh_batch=*/0, /*nprobe=*/8, precision)) {
    return 1;
  }
  EmbeddingServer& server = *ts.server;
  const NodeId n = ts.graph.num_nodes();
  const Tensor before = server.ServingEmbeddings();

  // Stream fresh interactions (existing nodes, post-training timestamps).
  Rng rng(77);
  std::vector<TemporalEdge> all_edges = ts.graph.edges();
  std::vector<TemporalEdge> stream;
  const Timestamp t0 = ts.graph.max_time();
  while (stream.size() < 10'000) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    const TemporalEdge e{u, v, t0 + 1.0 + static_cast<double>(stream.size())};
    stream.push_back(e);
    all_edges.push_back(e);
  }
  for (const TemporalEdge& e : stream) {
    if (!server.Ingest(e).ok()) {
      std::fprintf(stderr, "smoke: ingest failed\n");
      return 1;
    }
  }
  if (!server.Refresh().ok()) {
    std::fprintf(stderr, "smoke: refresh failed\n");
    return 1;
  }
  const Tensor after = server.ServingEmbeddings();

  // Offline oracle: restore the same checkpoint, point the inference engine
  // at the full graph rebuilt from scratch, re-finalize everything.
  auto full_or = TemporalGraph::FromEdges(all_edges, n, ts.graph.directed());
  if (!full_or.ok()) return 1;
  EhnaModel offline(&ts.graph, ts.cfg);
  if (!offline.RestoreCheckpoint(ts.ckpt).ok()) return 1;
  InferenceEngine engine(&ts.graph, offline.embedding(), offline.aggregator(),
                         ts.cfg);
  engine.RebindGraph(&full_or.value());
  std::vector<NodeId> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});
  Tensor oracle(n, ts.cfg.dim);
  engine.RefreshInto(all_nodes, &oracle);

  std::set<NodeId> endpoints;
  for (const TemporalEdge& e : stream) {
    endpoints.insert(e.src);
    endpoints.insert(e.dst);
  }
  const size_t row_bytes = static_cast<size_t>(ts.cfg.dim) * sizeof(float);
  size_t fresh = 0, stale = 0;
  for (NodeId v = 0; v < n; ++v) {
    const bool matches_oracle =
        std::memcmp(after.Row(v), oracle.Row(v), row_bytes) == 0;
    if (endpoints.count(v) && !matches_oracle) {
      std::fprintf(stderr,
                   "smoke: endpoint %u served bytes differ from offline "
                   "recompute\n", v);
      return 1;
    }
    if (matches_oracle) {
      ++fresh;
    } else if (std::memcmp(after.Row(v), before.Row(v), row_bytes) == 0) {
      ++stale;  // allowed: boundedly stale, still the pre-ingest bytes.
    } else {
      std::fprintf(stderr,
                   "smoke: node %u neither fresh nor pre-ingest\n", v);
      return 1;
    }
  }

  // ANN sanity: top-1 of a sample of nodes agrees with the exact scan.
  size_t agree = 0, tried = 0;
  for (NodeId v = 0; v < n; v += 17) {
    auto approx = server.Query(v, 1);
    auto exact = server.QueryExact(v, 1);
    if (!approx.ok() || !exact.ok() || approx.value().empty()) continue;
    ++tried;
    if (approx.value()[0].node == exact.value()[0].node) ++agree;
  }
  if (tried == 0 || agree * 10 < tried * 9) {
    std::fprintf(stderr, "smoke: ANN top-1 agreement %zu/%zu below 90%%\n",
                 agree, tried);
    return 1;
  }

  // Quantized tier: the mirror the server queries through must be exactly
  // what quantizing the served fp32 matrix offline produces (RequantizeRow
  // is a pure per-row function, so incremental refresh and full
  // re-quantization agree byte-for-byte), and the quantized exact scan
  // must find (nearly) the same neighbors as the fp32 oracle.
  size_t q_hits = 0, q_total = 0;
  if (precision != ServePrecision::kFp32) {
    const QuantizedMatrix mirror = server.QuantizedServingSnapshot();
    const QuantizedMatrix offline_q =
        QuantizedMatrix::FromTensor(after, precision);
    if (!SameQuantizedBytes(mirror, offline_q)) {
      std::fprintf(stderr,
                   "smoke: served quantized mirror differs from offline "
                   "re-quantization of the serving matrix\n");
      return 1;
    }
    for (NodeId v = 0; v < n; v += 7) {
      auto quant = server.QueryExact(v, 10);
      auto oracle_nn = server.QueryExactFp32(v, 10);
      if (!quant.ok() || !oracle_nn.ok()) continue;
      std::set<NodeId> truth;
      for (const Neighbor& nb : oracle_nn.value()) truth.insert(nb.node);
      q_total += truth.size();
      for (const Neighbor& nb : quant.value()) q_hits += truth.count(nb.node);
    }
    if (q_total == 0 || static_cast<double>(q_hits) <
                            0.99 * static_cast<double>(q_total)) {
      std::fprintf(stderr,
                   "smoke: quantized exact-scan recall@10 %zu/%zu below "
                   "0.99\n", q_hits, q_total);
      return 1;
    }
  }

  const auto stats = server.stats();
  std::printf(
      "smoke OK (%s): %zu edges ingested, %llu nodes re-finalized "
      "(%zu fresh / %zu stale of %u), ANN top-1 agreement %zu/%zu",
      ServePrecisionName(precision), stream.size(),
      static_cast<unsigned long long>(stats.refreshed_nodes), fresh, stale, n,
      agree, tried);
  if (precision != ServePrecision::kFp32) {
    std::printf(", quantized recall@10 %zu/%zu", q_hits, q_total);
  }
  std::printf("\n");
  std::filesystem::remove(ts.ckpt);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  ServePrecision precision = ServePrecision::kFp32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--precision=", 12) == 0) {
      auto p = ParseServePrecision(argv[i] + 12);
      if (!p.ok()) {
        std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
        return 2;
      }
      precision = p.value();
    } else {
      std::fprintf(stderr, "usage: serve_demo [--smoke] "
                   "[--precision=fp32|int8|bf16]\n");
      return 2;
    }
  }
  if (smoke) return RunSmoke(precision);
  return RunRepl(precision);
}
