#include "serve/embedding_server.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

#include "nn/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace ehna {

namespace {

// Seed salt for the stream that initializes embedding rows of nodes first
// seen in the ingest stream (disjoint from the train/finalize salts).
constexpr uint64_t kServeGrowSalt = 0x45484E4153525647ULL;  // "EHNASRVG"

void RecordQuantGauges(const QuantizedMatrix& quant,
                       const QuantErrorStats& err) {
  auto& metrics = MetricsRegistry::Global();
  metrics.GetGauge("serve.quant.bytes")
      ->Set(static_cast<double>(quant.bytes()));
  metrics.GetGauge("serve.quant.max_abs_error")->Set(err.max_abs);
  metrics.GetGauge("serve.quant.mean_abs_error")->Set(err.mean_abs);
}

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
    RecordQuantGauges(server->quant_,
                      server->quant_.ErrorStats(server->serving_));
  }
  return server;
}

void EmbeddingServer::MarkAffected(NodeId node) {
  if (node >= affected_mark_.size()) affected_mark_.resize(node + 1, 0);
  if (affected_mark_[node]) return;
  affected_mark_[node] = 1;
  affected_.push_back(node);
}

void EmbeddingServer::RecordStaleness(
    std::chrono::steady_clock::time_point now) {
  const size_t pending = overlay_->pending_edges();
  auto& metrics = MetricsRegistry::Global();
  metrics.GetGauge("serve.pending_edges")->Set(static_cast<double>(pending));
  metrics.GetGauge("serve.pending_age_ms")
      ->Set(pending == 0 ? 0.0
                         : std::chrono::duration<double, std::milli>(
                               now - oldest_pending_)
                               .count());
}

Status EmbeddingServer::Ingest(const TemporalEdge& edge) {
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdge(edge));
  const NodeId top = std::max(edge.src, edge.dst);
  if (top >= options_.max_nodes) {
    return Status::ResourceExhausted(
        "edge (" + std::to_string(edge.src) + ", " + std::to_string(edge.dst) +
        ") exceeds ServeOptions::max_nodes = " +
        std::to_string(options_.max_nodes));
  }
  std::lock_guard lock(write_mu_);
  // serving_ only changes under both locks, so write_mu_ suffices to read
  // its row count. The overlay's node count includes the pending growth.
  const uint64_t servable = static_cast<uint64_t>(serving_.rows());
  const uint64_t after =
      std::max<uint64_t>(overlay_->num_nodes(), uint64_t{top} + 1);
  if (after - servable > kMaxNewNodesPerRefresh) {
    return Status::ResourceExhausted(
        "edge (" + std::to_string(edge.src) + ", " + std::to_string(edge.dst) +
        ") would grow the node space from " + std::to_string(servable) +
        " servable rows to " + std::to_string(after) +
        ", more than EmbeddingServer::kMaxNewNodesPerRefresh = " +
        std::to_string(kMaxNewNodesPerRefresh));
  }
  Status st = overlay_->Ingest(edge);
  if (!st.ok()) return st;
  const auto now = std::chrono::steady_clock::now();
  if (overlay_->pending_edges() == 1) oldest_pending_ = now;
  ++ingested_edges_;
  MetricsRegistry::Global().GetCounter("serve.ingested_edges")->Add(1);
  overlay_->AffectedCandidates(edge, &candidate_scratch_);
  for (const NodeId v : candidate_scratch_) MarkAffected(v);
  if (options_.refresh_batch > 0 &&
      overlay_->pending_edges() >= options_.refresh_batch) {
    return RefreshLocked();
  }
  RecordStaleness(now);
  return Status::OK();
}

Status EmbeddingServer::Refresh() {
  std::lock_guard lock(write_mu_);
  return RefreshLocked();
}

Status EmbeddingServer::RefreshLocked() {
  if (affected_.empty() && overlay_->pending_edges() == 0) {
    return Status::OK();
  }
  // The sub-phases below nest inside serve.phase.refresh and split it
  // (DESIGN.md §8); the engine adds infer.phase.* inside refresh_aggregate.
  // Everything before refresh_publish holds write_mu_ alone: queries keep
  // reading the previous serving state meanwhile.
  EHNA_TRACE_PHASE("serve.phase.refresh");
  const bool quantized = options_.precision != ServePrecision::kFp32;

  {
    EHNA_TRACE_PHASE("serve.phase.refresh_compact");
    Status st = overlay_->Compact();
    if (!st.ok()) return st;
    engine_->RebindGraph(&overlay_->current());
  }

  // Nodes first seen in the stream: extend the trained table (fresh
  // word2vec-style rows from the dedicated grow stream) and stage grown
  // copies of the serving matrix and its mirror for the publish to swap in.
  // Existing rows keep their bytes.
  const NodeId n = overlay_->current().num_nodes();
  Tensor grown;
  QuantizedMatrix grown_quant;
  if (static_cast<int64_t>(n) > serving_.rows()) {
    EHNA_TRACE_PHASE("serve.phase.refresh_grow");
    model_->embedding()->EnsureRows(n, &grow_rng_);
    grown = Tensor(n, serving_.cols());
    std::copy(serving_.data(), serving_.data() + serving_.numel(),
              grown.data());
    if (quantized) {
      grown_quant = quant_;
      grown_quant.EnsureRows(n);
    }
  }

  // Row i of `staged` is affected_[i]'s new embedding; cells[i] its IVF cell.
  const int64_t dim = serving_.cols();
  Tensor staged(static_cast<int64_t>(affected_.size()), dim);
  {
    EHNA_TRACE_PHASE("serve.phase.refresh_aggregate");
    engine_->RefreshRows(affected_, &staged);
  }
  std::vector<size_t> cells(affected_.size());
  {
    EHNA_TRACE_PHASE("serve.phase.refresh_assign");
    for (size_t i = 0; i < affected_.size(); ++i) {
      cells[i] = index_->AssignCell(staged.Row(static_cast<int64_t>(i)));
    }
  }

  {
    // The one exclusive hold, timed from before the lock so the histogram
    // includes the wait for in-flight readers.
    EHNA_TRACE_PHASE("serve.phase.refresh_publish");
    std::unique_lock lock(mu_);
    if (grown.numel() > 0) {
      std::swap(serving_, grown);
      if (quantized) std::swap(quant_, grown_quant);
    }
    for (size_t i = 0; i < affected_.size(); ++i) {
      kernels::Copy(staged.Row(static_cast<int64_t>(i)),
                    serving_.Row(affected_[i]), dim);
    }
    {
      // Re-quantize exactly the refreshed rows: RequantizeRow is a pure
      // function of the fp32 row, so untouched mirror rows keep their bytes.
      EHNA_TRACE_PHASE("serve.phase.refresh_requantize");
      if (quantized) {
        for (const NodeId v : affected_) {
          quant_.RequantizeRow(static_cast<int64_t>(v), serving_.Row(v));
        }
      }
    }
    {
      EHNA_TRACE_PHASE("serve.phase.refresh_index_upsert");
      for (size_t i = 0; i < affected_.size(); ++i) {
        index_->Update(affected_[i], serving_.Row(affected_[i]), cells[i]);
      }
    }
  }
  // The pre-growth matrices in `grown`/`grown_quant` are freed on return,
  // after the lock is released.

  if (quantized) {
    // Gauges: exact resident bytes, plus the quantization error of the rows
    // this pass just rewrote (Load sets the whole-matrix figures).
    RecordQuantGauges(quant_, quant_.ErrorStatsForRows(serving_,
                                                       affected_.data(),
                                                       affected_.size()));
  }
  ++refreshes_;
  refreshed_nodes_ += affected_.size();
  MetricsRegistry::Global().GetCounter("serve.refreshed_nodes")
      ->Add(affected_.size());
  for (const NodeId v : affected_) affected_mark_[v] = 0;
  affected_.clear();
  RecordStaleness(std::chrono::steady_clock::now());
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
  // write_mu_ alone: serving_ only changes under both locks.
  std::lock_guard lock(write_mu_);
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
