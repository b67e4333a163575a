#include "serve/embedding_server.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"

namespace ehna {

namespace {

// Seed salt for the stream that initializes embedding rows of nodes first
// seen in the ingest stream (disjoint from the train/finalize salts).
constexpr uint64_t kServeGrowSalt = 0x45484E4153525647ULL;  // "EHNASRVG"

}  // namespace

EmbeddingServer::EmbeddingServer(TemporalGraph base, ServeOptions options)
    : options_(std::move(options)),
      base_(std::move(base)),
      grow_rng_(Rng::Stream(options_.config.seed, kServeGrowSalt)) {}

Result<std::unique_ptr<EmbeddingServer>> EmbeddingServer::Load(
    const std::string& checkpoint_path, TemporalGraph base,
    ServeOptions options) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<EmbeddingServer> server(
      new EmbeddingServer(std::move(base), std::move(options)));

  // The model restores only over the exact trained shape, so this must
  // happen before the overlay can grow the node space.
  server->model_ = std::make_unique<EhnaModel>(&server->base_,
                                               server->options_.config);
  Status restored = server->model_->RestoreCheckpoint(checkpoint_path);
  if (!restored.ok()) return restored;

  server->overlay_ = std::make_unique<DynamicTemporalGraph>(
      &server->base_, server->options_.overlay);
  server->engine_ = std::make_unique<InferenceEngine>(
      &server->base_, server->model_->embedding(),
      server->model_->aggregator(), server->options_.config);

  // Initial serving matrix: the §IV.D final pass for every node, via the
  // per-node streams (never the master RNG — the serving layer must not
  // perturb the checkpointed draw sequence), leaving the trained table
  // untouched so every later incremental refresh aggregates against it.
  {
    EHNA_TRACE_PHASE("serve.phase.initial_finalize");
    const NodeId n = server->base_.num_nodes();
    server->serving_ = Tensor(n, server->options_.config.dim);
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    server->engine_->RefreshInto(all, &server->serving_);
  }

  Result<IvfFlatIndex> index =
      IvfFlatIndex::Build(server->serving_, server->options_.ann);
  if (!index.ok()) return index.status();
  server->index_ =
      std::make_unique<IvfFlatIndex>(std::move(index).value());
  server->affected_mark_.assign(server->base_.num_nodes(), 0);

  // Quantized read-path mirror (DESIGN.md §14): derived from the serving
  // matrix, never the other way around — the fp32 matrix, the checkpoint,
  // and the trained table are byte-for-byte identical across tiers.
  if (server->options_.precision != ServePrecision::kFp32) {
    server->quant_ = QuantizedMatrix::FromTensor(server->serving_,
                                                 server->options_.precision);
    const QuantErrorStats err = server->quant_.ErrorStats(server->serving_);
    auto& metrics = MetricsRegistry::Global();
    metrics.GetGauge("serve.quant.bytes")
        ->Set(static_cast<double>(server->quant_.bytes()));
    metrics.GetGauge("serve.quant.max_abs_error")->Set(err.max_abs);
    metrics.GetGauge("serve.quant.mean_abs_error")->Set(err.mean_abs);
  }
  return server;
}

void EmbeddingServer::RequantizeRows(const std::vector<NodeId>& rows) {
  if (options_.precision == ServePrecision::kFp32) return;
  quant_.EnsureRows(serving_.rows());
  for (const NodeId v : rows) {
    quant_.RequantizeRow(static_cast<int64_t>(v), serving_.Row(v));
  }
  // Gauges: exact resident bytes, plus the quantization error of the rows
  // this pass just rewrote (Load sets the whole-matrix figures).
  const QuantErrorStats err =
      quant_.ErrorStatsForRows(serving_, rows.data(), rows.size());
  auto& metrics = MetricsRegistry::Global();
  metrics.GetGauge("serve.quant.bytes")
      ->Set(static_cast<double>(quant_.bytes()));
  metrics.GetGauge("serve.quant.max_abs_error")->Set(err.max_abs);
  metrics.GetGauge("serve.quant.mean_abs_error")->Set(err.mean_abs);
}

void EmbeddingServer::MarkAffected(NodeId node) {
  if (node >= affected_mark_.size()) affected_mark_.resize(node + 1, 0);
  if (affected_mark_[node]) return;
  affected_mark_[node] = 1;
  affected_.push_back(node);
}

Status EmbeddingServer::Ingest(const TemporalEdge& edge) {
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdge(edge));
  if (std::max(edge.src, edge.dst) >= options_.max_nodes) {
    return Status::ResourceExhausted(
        "edge (" + std::to_string(edge.src) + ", " + std::to_string(edge.dst) +
        ") exceeds ServeOptions::max_nodes = " +
        std::to_string(options_.max_nodes));
  }
  std::unique_lock lock(mu_);
  Status st = overlay_->Ingest(edge);
  if (!st.ok()) return st;
  ++ingested_edges_;
  MetricsRegistry::Global().GetCounter("serve.ingested_edges")->Add(1);
  overlay_->AffectedCandidates(edge, &candidate_scratch_);
  for (const NodeId v : candidate_scratch_) MarkAffected(v);
  if (options_.refresh_batch > 0 &&
      overlay_->pending_edges() >= options_.refresh_batch) {
    return RefreshLocked();
  }
  return Status::OK();
}

Status EmbeddingServer::Refresh() {
  std::unique_lock lock(mu_);
  return RefreshLocked();
}

Status EmbeddingServer::RefreshLocked() {
  if (affected_.empty() && overlay_->pending_edges() == 0) {
    return Status::OK();
  }
  // The sub-phases below nest inside serve.phase.refresh and split it
  // (DESIGN.md §8); the engine adds infer.phase.* inside refresh_aggregate.
  EHNA_TRACE_PHASE("serve.phase.refresh");

  {
    EHNA_TRACE_PHASE("serve.phase.refresh_compact");
    Status st = overlay_->Compact();
    if (!st.ok()) return st;
    engine_->RebindGraph(&overlay_->current());
  }

  // Nodes first seen in the stream: extend the trained table (fresh
  // word2vec-style rows from the dedicated grow stream) and the serving
  // matrix. Existing rows keep their bytes.
  const NodeId n = overlay_->current().num_nodes();
  if (static_cast<int64_t>(n) > serving_.rows()) {
    EHNA_TRACE_PHASE("serve.phase.refresh_grow");
    model_->embedding()->EnsureRows(n, &grow_rng_);
    Tensor grown(n, serving_.cols());
    std::copy(serving_.data(), serving_.data() + serving_.numel(),
              grown.data());
    serving_ = std::move(grown);
  }

  {
    EHNA_TRACE_PHASE("serve.phase.refresh_aggregate");
    engine_->RefreshInto(affected_, &serving_);
  }
  {
    // Re-quantize exactly the refreshed rows: RequantizeRow is a pure
    // function of the fp32 row, so untouched mirror rows keep their bytes.
    EHNA_TRACE_PHASE("serve.phase.refresh_requantize");
    RequantizeRows(affected_);
  }
  {
    EHNA_TRACE_PHASE("serve.phase.refresh_index_upsert");
    for (const NodeId v : affected_) {
      index_->Update(v, serving_.Row(v));
    }
  }
  ++refreshes_;
  refreshed_nodes_ += affected_.size();
  MetricsRegistry::Global().GetCounter("serve.refreshed_nodes")
      ->Add(affected_.size());
  for (const NodeId v : affected_) affected_mark_[v] = 0;
  affected_.clear();
  return Status::OK();
}

Result<std::vector<Neighbor>> EmbeddingServer::Query(NodeId node,
                                                     size_t k) const {
  std::shared_lock lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (options_.precision != ServePrecision::kFp32) {
    return index_->QueryNodeQuantized(quant_, node, k, /*nprobe=*/0,
                                      options_.rerank_factor);
  }
  return index_->QueryNode(node, k);
}

Result<std::vector<Neighbor>> EmbeddingServer::QueryExact(NodeId node,
                                                          size_t k) const {
  std::shared_lock lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (options_.precision != ServePrecision::kFp32) {
    return TopKNeighborsQuantized(serving_, quant_, node, k,
                                  options_.ann.similarity,
                                  options_.rerank_factor);
  }
  return TopKNeighbors(serving_, node, k, options_.ann.similarity);
}

Result<std::vector<Neighbor>> EmbeddingServer::QueryExactFp32(NodeId node,
                                                              size_t k) const {
  std::shared_lock lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  return TopKNeighbors(serving_, node, k, options_.ann.similarity);
}

Result<double> EmbeddingServer::LinkScore(NodeId u, NodeId v) const {
  std::shared_lock lock(mu_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  return PairSimilarity(serving_, u, v, options_.ann.similarity);
}

Tensor EmbeddingServer::ServingEmbeddings() const {
  std::shared_lock lock(mu_);
  return serving_;
}

QuantizedMatrix EmbeddingServer::QuantizedServingSnapshot() const {
  std::shared_lock lock(mu_);
  return quant_;
}

size_t EmbeddingServer::num_nodes() const {
  std::shared_lock lock(mu_);
  return static_cast<size_t>(serving_.rows());
}

EmbeddingServer::Stats EmbeddingServer::stats() const {
  std::shared_lock lock(mu_);
  Stats s;
  s.ingested_edges = ingested_edges_;
  s.pending_edges = overlay_->pending_edges();
  s.refreshes = refreshes_;
  s.refreshed_nodes = refreshed_nodes_;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.num_nodes = static_cast<uint64_t>(serving_.rows());
  s.num_edges = overlay_->current().num_edges();
  return s;
}

}  // namespace ehna
