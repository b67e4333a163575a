#ifndef EHNA_SERVE_EMBEDDING_SERVER_H_
#define EHNA_SERVE_EMBEDDING_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "eval/ann.h"
#include "eval/knn.h"
#include "graph/dynamic_graph.h"
#include "graph/temporal_graph.h"
#include "nn/quant.h"
#include "util/status.h"

namespace ehna {

/// Serving configuration (DESIGN.md §13).
struct ServeOptions {
  /// Model hyperparameters; must carry the checkpoint's fingerprint fields
  /// (seed, dim, variant, lstm_layers) or Load rejects the snapshot.
  /// `config.num_threads` sizes the refresh fan-out.
  EhnaConfig config;
  /// Dynamic-overlay knobs (per-node refresh-candidate cache size).
  DynamicGraphOptions overlay;
  /// ANN index knobs. The similarity here is the serving metric for
  /// Query/QueryExact/LinkScore alike.
  IvfFlatOptions ann;
  /// Pending ingested edges that trigger an automatic Refresh. 0 disables
  /// auto-refresh (callers drive Refresh() themselves).
  size_t refresh_batch = 256;
  /// Read-path precision tier (DESIGN.md §14). kFp32 serves exactly as
  /// before; kInt8/kBf16 keep a quantized mirror of the serving matrix that
  /// scores candidates cheaply, with the top `rerank_factor * k` survivors
  /// re-ranked in fp32. Training, checkpoints, and the fp32 serving matrix
  /// itself are byte-for-byte unaffected by this choice.
  ServePrecision precision = ServePrecision::kFp32;
  /// Quantized-path re-rank depth multiplier (survivors = rerank_factor*k).
  size_t rerank_factor = 4;
  /// Node-id ceiling for ingested edges: an edge naming a node id at or
  /// above it is refused with ResourceExhausted, because accepting it would
  /// grow the overlay caches, the embedding table and the serving matrix to
  /// that many rows. The default (2^26) is far above any served graph here.
  NodeId max_nodes = NodeId{1} << 26;
};

/// The production half of the system (ROADMAP item 1): a long-lived façade
/// that loads a trained checkpoint, ingests a live stream of timestamped
/// edges through a dynamic overlay on the immutable flat-CSR graph,
/// incrementally re-finalizes embeddings for the nodes each batch of edges
/// affects (via the trainer-free InferenceEngine, per-node RNG streams),
/// and answers top-k nearest-neighbor and link-score queries from many
/// concurrent threads through an IVF-flat ANN index over the served
/// embeddings — with the exact O(N) scan kept alongside as the recall
/// oracle.
///
/// Concurrency (DESIGN.md §13): two locks, taken in this order. A writer
/// mutex serializes Ingest/Refresh/stats() and guards the overlay, engine,
/// model, pending set and counters. A reader/writer lock guards only what
/// queries read: the serving matrix, its quantized mirror and the ANN
/// index. Queries share it; a refresh takes it exclusively only to publish
/// rows it has already computed. Compaction, growth, re-aggregation and
/// cell assignment run under the writer mutex alone, so queries keep
/// reading the previous refresh's state meanwhile and never see a refresh
/// half-published.
///
/// Consistency contract (DESIGN.md §13): queries between refreshes see the
/// pre-refresh embeddings ("read-your-refreshes", not read-your-writes); a
/// refresh recomputes exactly the affected candidate set — the new edges'
/// endpoints plus a bounded down-sampled set of their neighbors — against
/// the full compacted graph, so those rows match an offline finalize over
/// the same graph bitwise, while untouched nodes serve (boundedly) stale
/// rows until an edge lands near them.
class EmbeddingServer {
 public:
  struct Stats {
    uint64_t ingested_edges = 0;
    uint64_t pending_edges = 0;
    uint64_t refreshes = 0;
    uint64_t refreshed_nodes = 0;
    uint64_t queries = 0;
    uint64_t num_nodes = 0;
    uint64_t num_edges = 0;  // compacted snapshot edges.
  };

  /// Most node ids one refresh may add: Ingest refuses with
  /// ResourceExhausted an edge that would grow the node space more than
  /// this past the servable rows, counting the growth already pending.
  /// Without it one edge naming an id far below max_nodes makes the next
  /// refresh allocate that many table and serving rows at once.
  static constexpr NodeId kMaxNewNodesPerRefresh = NodeId{1} << 16;

  /// Builds a server over `base` (the graph the checkpoint was trained on,
  /// moved in and owned), restores the snapshot at `checkpoint_path`,
  /// computes the initial serving matrix with the §IV.D final pass
  /// (per-node streams; the trained table itself is never overwritten), and
  /// builds the ANN index. Returns the failure Status on any mismatch.
  static Result<std::unique_ptr<EmbeddingServer>> Load(
      const std::string& checkpoint_path, TemporalGraph base,
      ServeOptions options);

  /// Appends one timestamped edge to the overlay: O(1) plus bounded cache
  /// maintenance. New node ids are accepted (they become servable after the
  /// next refresh) up to kMaxNewNodesPerRefresh past the servable rows;
  /// a refused edge changes nothing. Triggers an automatic Refresh once
  /// `refresh_batch` edges are pending, and returns after it has published.
  Status Ingest(const TemporalEdge& edge);

  /// Compacts the overlay into a fresh snapshot and re-finalizes every
  /// affected node's embedding against it, updating the serving matrix and
  /// ANN index. No-op when nothing is pending.
  Status Refresh();

  /// ANN top-k nearest neighbors of `node` under the serving similarity.
  /// OutOfRange for nodes not yet servable (never refreshed into the
  /// serving matrix).
  Result<std::vector<Neighbor>> Query(NodeId node, size_t k) const;

  /// The exact-scan counterpart of Query (same metric, full O(N·d) pass).
  /// Under a quantized precision tier this is the quantized scan + fp32
  /// re-rank; under kFp32 it is the plain fp32 scan.
  Result<std::vector<Neighbor>> QueryExact(NodeId node, size_t k) const;

  /// The full-precision exact-scan oracle, regardless of the configured
  /// precision tier — the retained fp32 fallback quantized recall is
  /// measured against.
  Result<std::vector<Neighbor>> QueryExactFp32(NodeId node, size_t k) const;

  /// Serving-metric score between two servable nodes.
  Result<double> LinkScore(NodeId u, NodeId v) const;

  /// Snapshot copy of the serving matrix (for offline comparison).
  Tensor ServingEmbeddings() const;

  /// Snapshot copy of the quantized mirror (empty under kFp32) — for
  /// offline recomputation checks: quantizing ServingEmbeddings() must
  /// reproduce these bytes exactly.
  QuantizedMatrix QuantizedServingSnapshot() const;

  /// Nodes currently servable (rows of the serving matrix).
  size_t num_nodes() const;

  /// Takes the writer mutex, so it waits for an in-flight Ingest/Refresh.
  Stats stats() const;

  const EhnaConfig& config() const { return options_.config; }
  ServePrecision precision() const { return options_.precision; }

 private:
  EmbeddingServer(TemporalGraph base, ServeOptions options);

  /// Dedup-appends `node` to the pending refresh set. Caller holds
  /// write_mu_.
  void MarkAffected(NodeId node);
  /// Compact + re-finalize + cell assignment under write_mu_ (which the
  /// caller holds), then the publish under mu_ held exclusively.
  Status RefreshLocked();
  /// Sets the serve.pending_* staleness gauges. Caller holds write_mu_.
  void RecordStaleness(std::chrono::steady_clock::time_point now);

  ServeOptions options_;
  TemporalGraph base_;  // keeps the model's construction graph alive.

  // Writer side, guarded by write_mu_ (set up by Load before sharing).
  mutable std::mutex write_mu_;
  std::unique_ptr<EhnaModel> model_;
  std::unique_ptr<DynamicTemporalGraph> overlay_;
  std::unique_ptr<InferenceEngine> engine_;
  Rng grow_rng_;  // init stream for table rows past the trained range.
  std::vector<NodeId> affected_;       // pending refresh set, deduped...
  std::vector<uint8_t> affected_mark_; // ...via this bitmap.
  std::vector<NodeId> candidate_scratch_;
  std::chrono::steady_clock::time_point oldest_pending_;  // first unpublished.
  uint64_t ingested_edges_ = 0;
  uint64_t refreshes_ = 0;
  uint64_t refreshed_nodes_ = 0;

  // Reader side, guarded by mu_. Mutated only with write_mu_ held too, so a
  // writer holding write_mu_ alone may read it.
  mutable std::shared_mutex mu_;
  Tensor serving_;  // [servable nodes, dim].
  QuantizedMatrix quant_;  // read-path mirror of serving_ (empty on kFp32).
  std::unique_ptr<IvfFlatIndex> index_;
  mutable std::atomic<uint64_t> queries_{0};
};

}  // namespace ehna

#endif  // EHNA_SERVE_EMBEDDING_SERVER_H_
