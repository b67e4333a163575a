#ifndef EHNA_CORE_AGGREGATOR_H_
#define EHNA_CORE_AGGREGATOR_H_

#include <memory>
#include <vector>

#include "core/ehna_config.h"
#include "graph/temporal_graph.h"
#include "nn/batchnorm.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "util/rng.h"
#include "walk/node2vec_walk.h"
#include "walk/temporal_walk.h"

namespace ehna {

/// Everything one Aggregate call would have drawn from the RNG, captured up
/// front so a batch of aggregations can run through one packed tape
/// (DESIGN.md §10). Produced by EhnaAggregator::PlanAggregation, which
/// consumes the RNG in exactly the order Aggregate would.
struct AggregationPlan {
  NodeId target = 0;
  Timestamp ref_time = 0;
  /// Sampled walks; empty selects the GraphSAGE-style fallback.
  std::vector<Walk> walks;
  /// Fallback: pre-sampled 2-hop neighborhood ids (empty for an isolated
  /// node, whose neighborhood summary is the zero vector).
  std::vector<NodeId> fallback_ids;
};

/// The packed LSTM tapes of one training AggregateBatch call and where each
/// plan sits in them (DESIGN.md §10). Filled only on request, so a test can
/// replay the deferred weight gradients unit by unit against the sentinel.
struct PackedBatchTrace {
  struct Plan {
    bool fallback = false;      // no LSTM rows: GraphSAGE-style summary.
    bool single_layer = false;  // EHNA-SL: no walk-level pass.
    int64_t row_off = 0;        // node-level rows [row_off, row_off + k)
    int64_t k = 0;
    size_t T = 0;               // node-level steps
    int64_t walk_pos = 0;       // the plan's walk-level row
    Var cmat, mm;               // fuse projection: mm = cmat @ W
  };
  PackedLstmTrace node, walk;
  std::vector<Plan> plans;  // plan order
};

/// The historical-neighborhood aggregation network of Algorithm 1: samples
/// temporal random walks from a target node, applies node-level attention
/// (Eq. 3) + a stacked LSTM + BatchNorm + ReLU per walk, walk-level
/// attention (Eq. 4) + a stacked LSTM + BatchNorm across walks, and fuses
/// the neighborhood summary H with the node's own embedding through
/// z = normalize(W [H || e_x]).
///
/// Nodes with no historical neighborhood fall back to a GraphSAGE-style
/// mean over a sampled 2-hop neighborhood (§IV.D).
class EhnaAggregator {
 public:
  /// `graph` and `embedding` must outlive the aggregator.
  EhnaAggregator(const TemporalGraph* graph, Embedding* embedding,
                 const EhnaConfig& config, Rng* rng);

  /// Computes the aggregated embedding z_x (rank-1 [dim]) for `target`,
  /// analyzing history strictly before-or-at `ref_time`. `training` selects
  /// BatchNorm statistics mode.
  Var Aggregate(NodeId target, Timestamp ref_time, bool training, Rng* rng);

  /// Captures the walk/fallback sampling for one aggregation, consuming
  /// `rng` in exactly the order Aggregate(target, ref_time, ..., rng)
  /// would. Counters (agg.aggregations / agg.fallbacks) and the
  /// train.phase.walk_sampling trace region fire here, as they would in
  /// Aggregate.
  void PlanAggregation(NodeId target, Timestamp ref_time, Rng* rng,
                       AggregationPlan* plan);

  /// Computes every plan's z on ONE packed tape: all walk sequences run
  /// through a single length-bucketed masked LSTM pack per level, and every
  /// accumulation whose float order could depend on how many aggregations
  /// share the tape (LSTM/fuse weight grads, BatchNorm gamma/beta, the
  /// sparse embedding scatter) is deferred to a replay sentinel that fires
  /// once per call, in canonical reverse-plan order. Consequently losses
  /// and gradients are bitwise identical whether a caller packs one edge
  /// per call or a whole batch/shard per call. Returns one rank-1 [dim] Var
  /// per plan, in plan order. See DESIGN.md §10. Under a NoTapeScope (the
  /// inference path, DESIGN.md §13) the values are the same and no replay
  /// sentinel is built. A non-null `trace` receives the packed tapes.
  std::vector<Var> AggregateBatch(const std::vector<AggregationPlan>& plans,
                                  bool training,
                                  PackedBatchTrace* trace = nullptr);

  /// All trainable dense parameters (LSTMs, BatchNorms, output projection).
  /// The embedding table updates sparsely through its own optimizer.
  /// The order is fixed by construction, so two aggregators built from the
  /// same config have positionally matching parameter lists — which is what
  /// the data-parallel trainer's replica sync/reduce relies on.
  std::vector<Var> Parameters() const;

  /// Redirects this aggregator's embedding gathers to `sink` (nullptr
  /// restores the embedding's internal accumulator). A worker replica sets
  /// its own sink so concurrent backward passes never share gradient state.
  void set_grad_sink(std::shared_ptr<SparseRowGrads> sink) {
    grad_sink_ = std::move(sink);
  }
  const std::shared_ptr<SparseRowGrads>& grad_sink() const {
    return grad_sink_;
  }

  /// The aggregator's BatchNorms ({node-level, walk-level}), exposed so the
  /// data-parallel trainer can sync/merge running statistics between the
  /// master and its worker replicas.
  std::vector<BatchNorm1d*> MutableBatchNorms() {
    return {&node_bn_, &walk_bn_};
  }

  /// Repoints the aggregator at a new graph, rebuilding both walk samplers
  /// (the temporal sampler caches the graph's inverse time span at
  /// construction, so reseating the pointer alone would leave walk
  /// probabilities computed against the old span). Trained parameters and
  /// BatchNorm statistics are untouched. Used by the serving layer after
  /// compacting its dynamic overlay; `graph` must outlive the aggregator.
  void ResetGraph(const TemporalGraph* graph);

  const EhnaConfig& config() const { return config_; }

 private:
  /// Walk sampling according to the configured variant. Walks of length 1
  /// (no historical step possible) are dropped; an empty result triggers
  /// the fallback path.
  std::vector<Walk> SampleWalks(NodeId target, Timestamp ref_time, Rng* rng);

  /// Algorithm 1 lines 1-4 batched over walks: attention-weighted node
  /// embeddings -> stacked LSTM -> BN -> ReLU. Returns [k, dim].
  Var NodeLevel(const std::vector<Walk>& walks, const Var& target_embedding,
                std::vector<float>* walk_coeffs, bool training);

  /// Algorithm 1 lines 5-6: walk attention -> stacked LSTM -> BN. [dim].
  Var WalkLevel(const Var& walk_reprs, const Var& target_embedding,
                const std::vector<float>& walk_coeffs, bool training);

  /// EHNA-SL: one single-layer LSTM pass over the flattened walk sequence.
  Var SingleLevel(const std::vector<Walk>& walks, bool training);

  /// GraphSAGE-style neighborhood mean for history-less targets.
  Var FallbackNeighborhood(NodeId target, Timestamp ref_time, Rng* rng);

  /// z = normalize(W [H || e_x]).
  Var Fuse(const Var& neighborhood, const Var& target_embedding);

  const TemporalGraph* graph_;
  Embedding* embedding_;
  EhnaConfig config_;
  bool use_attention_;
  std::shared_ptr<SparseRowGrads> grad_sink_;  // null = internal accumulator.

  TemporalWalkSampler temporal_sampler_;
  Node2VecWalkSampler static_sampler_;  // used by the EHNA-RW variant.

  StackedLstm node_lstm_;
  BatchNorm1d node_bn_;
  StackedLstm walk_lstm_;
  BatchNorm1d walk_bn_;
  Linear fuse_;  // [2*dim -> dim], the trainable W of Algorithm 1 line 7.
};

}  // namespace ehna

#endif  // EHNA_CORE_AGGREGATOR_H_
