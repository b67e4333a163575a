#ifndef EHNA_CORE_INFERENCE_H_
#define EHNA_CORE_INFERENCE_H_

#include <memory>
#include <span>

#include "core/aggregator.h"
#include "core/ehna_config.h"
#include "graph/temporal_graph.h"
#include "nn/embedding.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ehna {

/// Seed salt separating the per-node inference streams from the per-edge
/// training streams (model.cc's kTrainStreamSalt) and from everything the
/// master Rng draws. Node v's inference stream is
/// Rng::Stream(config.seed ^ kFinalizeStreamSalt, v).
inline constexpr uint64_t kFinalizeStreamSalt =
    0x45484E4146494E00ULL;  // "EHNAFIN"

/// The trainer-free inference core: the §IV.D final pass (one aggregation
/// per node anchored at its most recent interaction, the aggregated
/// embedding becoming the node's embedding) plus the incremental per-node
/// refresh the serving layer builds on.
///
/// The engine borrows — never owns — the graph, embedding table, and
/// aggregator, so `EhnaModel` can delegate to it against its own members
/// while `EmbeddingServer` drives the identical code against a restored
/// checkpoint. Inference is a pure read of the trained parameters and table
/// (eval mode never touches BatchNorm running statistics, and no backward
/// runs), which is what makes both the node-parallel fan-out and the
/// serving layer's concurrent refresh sound.
class InferenceEngine {
 public:
  /// `graph`, `embedding`, and `aggregator` must outlive the engine.
  /// `aggregator` must have been built over `embedding` and `config`.
  InferenceEngine(const TemporalGraph* graph, Embedding* embedding,
                  EhnaAggregator* aggregator, const EhnaConfig& config);

  /// Repoints the engine (and its aggregator's walk samplers) at a new
  /// graph — the serving layer calls this after compacting its dynamic
  /// overlay. The embedding table must already cover the new graph's nodes.
  void RebindGraph(const TemporalGraph* graph);

  const TemporalGraph* graph() const { return graph_; }
  const EhnaConfig& config() const { return config_; }

  /// The §IV.D final pass *without* the write-back: returns the [N, dim]
  /// matrix of per-node aggregated embeddings (isolated nodes contribute
  /// their L2-normalized raw rows), leaving the trained table untouched.
  /// RefreshInto over every node: per-node streams, fanned out across
  /// `pool` (lazily self-built when null), so the result is a function of
  /// the seed and trained state alone, whatever the thread count. The
  /// aggregations run forward-only through packed AggregateBatch chunks
  /// (DESIGN.md §13).
  Tensor ComputeFinalEmbeddings(ThreadPool* pool = nullptr);

  /// ComputeFinalEmbeddings + §IV.D's e_x := z_x write-back into the table.
  /// The write-back happens only after every node has been aggregated
  /// against the *trained* table, so later aggregations never read
  /// already-replaced rows. EhnaModel::FinalizeEmbeddings delegates here
  /// (pinned by tests/serve_test.cc).
  Tensor FinalizeEmbeddings(ThreadPool* pool = nullptr);

  /// Incremental refresh for the serving layer: recomputes the final
  /// embedding of every node in `nodes` against the current graph and the
  /// (trained, untouched) table, writing row v of `out` for each node v.
  /// Every node uses its per-node stream Rng::Stream(seed ^
  /// kFinalizeStreamSalt, v) regardless of thread count, so a refreshed row
  /// is bitwise-identical to what the full finalize produces for that node
  /// on the same graph — and independent of which batch of affected nodes
  /// it rode in on. `out` must have at least graph()->num_nodes() rows.
  void RefreshInto(std::span<const NodeId> nodes, Tensor* out,
                   ThreadPool* pool = nullptr);

  /// RefreshInto with compact output: row i of `rows` receives the final
  /// embedding of nodes[i], byte-equal to RefreshInto's row nodes[i]. The
  /// serving layer stages a refresh's rows here before publishing them.
  /// `rows` must have at least nodes.size() rows.
  void RefreshRows(std::span<const NodeId> nodes, Tensor* rows,
                   ThreadPool* pool = nullptr);

 private:
  /// Isolated node: L2-normalized raw embedding row (zero row if the norm
  /// underflows), so its scale matches the normalized aggregated ones.
  void FinalizeIsolated(NodeId v, float* dst) const;

  /// The one aggregation path: writes the final embedding of every node
  /// nodes[i], i in [begin, end), into out->Row(compact ? i : nodes[i]).
  /// Plans run through AggregateBatch under a NoTapeScope, in chunks
  /// bounded by packed walk rows. Each node draws from its per-node stream.
  void AggregateRange(std::span<const NodeId> nodes, size_t begin,
                      size_t end, bool compact, Tensor* out);

  /// Shards `nodes` across `pool` (self-built when null and the config asks
  /// for threads) and runs AggregateRange on each shard.
  void Refresh(std::span<const NodeId> nodes, bool compact, Tensor* out,
               ThreadPool* pool);

  ThreadPool* EnsurePool();

  const TemporalGraph* graph_;
  Embedding* embedding_;
  EhnaAggregator* aggregator_;
  EhnaConfig config_;
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace ehna

#endif  // EHNA_CORE_INFERENCE_H_
