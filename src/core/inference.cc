#include "core/inference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "nn/kernels.h"
#include "util/metrics.h"

namespace ehna {

namespace {

/// Bound on one AggregateBatch chunk, in node-level pack rows (walks times
/// padded length, summed over the chunk's plans). A chunk's tensors live
/// until its forward finishes, so this caps the per-thread working set:
/// DESIGN.md §13 records the RSS measurement behind the value.
constexpr size_t kMaxPackedWalkRows = 256;

/// Node-level pack rows `plan` adds to a chunk (EHNA-SL's flattened
/// sequence is never longer); a fallback plan counts one.
size_t PackedWalkRows(const AggregationPlan& plan) {
  size_t longest = 0;
  for (const Walk& w : plan.walks) longest = std::max(longest, w.size());
  return std::max<size_t>(1, plan.walks.size() * longest);
}

}  // namespace

InferenceEngine::InferenceEngine(const TemporalGraph* graph,
                                 Embedding* embedding,
                                 EhnaAggregator* aggregator,
                                 const EhnaConfig& config)
    : graph_(graph),
      embedding_(embedding),
      aggregator_(aggregator),
      config_(config) {
  EHNA_CHECK(graph != nullptr);
  EHNA_CHECK(embedding != nullptr);
  EHNA_CHECK(aggregator != nullptr);
  EHNA_CHECK_EQ(embedding->dim(), config.dim);
}

void InferenceEngine::RebindGraph(const TemporalGraph* graph) {
  EHNA_CHECK(graph != nullptr);
  graph_ = graph;
  aggregator_->ResetGraph(graph);
}

ThreadPool* InferenceEngine::EnsurePool() {
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(ResolvedNumThreads(config_)));
  }
  return owned_pool_.get();
}

void InferenceEngine::FinalizeIsolated(NodeId v, float* dst) const {
  const int64_t d = config_.dim;
  const float* src = embedding_->RowData(v);
  double norm = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    norm += static_cast<double>(src[j]) * src[j];
  }
  const float inv =
      norm > 1e-24 ? 1.0f / static_cast<float>(std::sqrt(norm)) : 0.0f;
  for (int64_t j = 0; j < d; ++j) dst[j] = src[j] * inv;
}

void InferenceEngine::AggregateRange(std::span<const NodeId> nodes,
                                     size_t begin, size_t end, bool compact,
                                     Tensor* out) {
  // The aggregations are a pure forward read: no tape, so intermediates die
  // with each chunk and nothing accumulates into the table's gradients.
  NoTapeScope no_tape;
  std::vector<AggregationPlan> plans;
  std::vector<float*> dsts;
  size_t i = begin;
  while (i < end) {
    size_t rows = 0;
    plans.clear();
    dsts.clear();
    {
      EHNA_TRACE_PHASE("infer.phase.plan");
      for (; i < end && rows < kMaxPackedWalkRows; ++i) {
        const NodeId v = nodes[i];
        float* dst = out->Row(compact ? static_cast<int64_t>(i) : v);
        auto recent = graph_->MostRecentInteraction(v);
        if (!recent.ok()) {
          FinalizeIsolated(v, dst);
          continue;
        }
        Rng node_rng = Rng::Stream(config_.seed ^ kFinalizeStreamSalt, v);
        AggregationPlan& plan = plans.emplace_back();
        aggregator_->PlanAggregation(v, recent.value(), &node_rng, &plan);
        dsts.push_back(dst);
        rows += PackedWalkRows(plan);
      }
    }
    if (plans.empty()) continue;
    EHNA_TRACE_PHASE("infer.phase.packed_forward");
    const std::vector<Var> z =
        aggregator_->AggregateBatch(plans, /*training=*/false);
    for (size_t p = 0; p < z.size(); ++p) {
      kernels::Copy(z[p].value().data(), dsts[p], config_.dim);
    }
  }
}

Tensor InferenceEngine::ComputeFinalEmbeddings(ThreadPool* pool) {
  const NodeId n = graph_->num_nodes();
  Tensor final(n, config_.dim);
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  RefreshInto(all, &final, pool);
  return final;
}

Tensor InferenceEngine::FinalizeEmbeddings(ThreadPool* pool) {
  Tensor final = ComputeFinalEmbeddings(pool);
  // Write back only after every node has been aggregated against the
  // *trained* table (§IV.D's e_x := z_x), so later aggregations do not read
  // already-replaced rows.
  const NodeId n = graph_->num_nodes();
  for (NodeId v = 0; v < n; ++v) embedding_->SetRow(v, final.Row(v));
  return final;
}

void InferenceEngine::RefreshInto(std::span<const NodeId> nodes, Tensor* out,
                                  ThreadPool* pool) {
  EHNA_CHECK(out != nullptr);
  EHNA_CHECK_GE(out->rows(), static_cast<int64_t>(graph_->num_nodes()));
  Refresh(nodes, /*compact=*/false, out, pool);
}

void InferenceEngine::RefreshRows(std::span<const NodeId> nodes, Tensor* rows,
                                  ThreadPool* pool) {
  EHNA_CHECK(rows != nullptr);
  EHNA_CHECK_GE(rows->rows(), static_cast<int64_t>(nodes.size()));
  Refresh(nodes, /*compact=*/true, rows, pool);
}

void InferenceEngine::Refresh(std::span<const NodeId> nodes, bool compact,
                              Tensor* out, ThreadPool* pool) {
  EHNA_CHECK_EQ(out->cols(), config_.dim);
  if (pool == nullptr && ResolvedNumThreads(config_) > 1) pool = EnsurePool();
  if (pool == nullptr || pool->num_threads() < 2 || nodes.size() < 2) {
    AggregateRange(nodes, 0, nodes.size(), compact, out);
    return;
  }
  // Per-node streams make every row a function of the seed alone, so the
  // shard layout (like the chunking inside each shard) moves no byte.
  pool->ParallelForShards(nodes.size(), pool->num_threads() * 4,
                          [&](size_t, size_t begin, size_t end) {
                            AggregateRange(nodes, begin, end, compact, out);
                          });
}

}  // namespace ehna
