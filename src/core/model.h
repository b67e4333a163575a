#ifndef EHNA_CORE_MODEL_H_
#define EHNA_CORE_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/ehna_config.h"
#include "graph/noise_distribution.h"
#include "graph/temporal_graph.h"
#include "nn/optim.h"
#include "util/thread_pool.h"

namespace ehna {

/// The complete EHNA model and trainer (§IV): per-edge historical
/// neighborhood aggregation for both endpoints and the sampled negatives,
/// the margin-based hinge objective of Eq. 6/7, sparse-Adam updates for the
/// embedding table, dense Adam for the network parameters, and the final
/// inference pass that replaces each node's embedding with its aggregated
/// embedding anchored at its most recent interaction.
///
/// Training is data-parallel at every thread count (`config.num_threads`,
/// resolved by ResolvedNumThreads): each minibatch is sharded across worker
/// replicas that build independent autograd tapes, and the per-shard
/// gradients are reduced into the single shared parameter set before one
/// optimizer step. One thread is the same loop with one shard. Every edge
/// plans from its own RNG stream, keyed by (seed, epoch, position), and
/// inference (FinalizeEmbeddings) uses per-node streams, so finalize is a
/// function of the trained state alone, whatever the thread count.
///
/// A shard first plans every aggregation it needs — capturing every RNG
/// draw up front — and then runs them all through one packed
/// AggregateBatch tape (DESIGN.md §10).
class EhnaModel {
 public:
  /// `graph` must outlive the model.
  EhnaModel(const TemporalGraph* graph, const EhnaConfig& config);
  ~EhnaModel();

  /// Per-epoch training statistics.
  struct EpochStats {
    double avg_loss = 0.0;
    size_t edges = 0;
    double seconds = 0.0;
  };

  /// One pass over (a shuffled sample of) the training edges.
  EpochStats TrainEpoch();

  /// Trains until `config.epochs` (or `epochs` if > 0) epochs have been
  /// *completed*, counting epochs restored from a checkpoint — so a model
  /// resumed at epoch k runs exactly the remaining epochs and lands on the
  /// same final state as an uninterrupted run. `progress`, when set, is
  /// invoked after each epoch with its zero-based index. When
  /// `config.checkpoint_dir` is non-empty, a snapshot is written every
  /// `config.checkpoint_every` completed epochs (and after the final one),
  /// with keep-last-N rotation; snapshot failures are logged, not fatal.
  /// A negative `config.epochs` is a programming error and aborts with a
  /// message naming the field.
  std::vector<EpochStats> Train(
      int epochs = 0,
      const std::function<void(int epoch, const EpochStats&)>& progress = {});

  /// Builds the autograd loss for one edge (Eq. 6, or Eq. 7 when
  /// bidirectional negatives are enabled) on the master aggregator and RNG:
  /// PlanEdge, one AggregateBatch, then EdgeLossFromZ. Exposed for tests.
  Var EdgeLoss(const TemporalEdge& edge, bool training);

  /// §IV.D final pass: one aggregation per node anchored at its most recent
  /// edge; the aggregated embeddings become the final embeddings (written
  /// back into the table) and are returned as an [N, dim] matrix. Isolated
  /// nodes keep their (L2-normalized) raw embeddings. Delegates to the
  /// trainer-free InferenceEngine (core/inference.h) against this model's
  /// graph/table/aggregator, so the result is bitwise the same at every
  /// thread count for the same trained state.
  Tensor FinalizeEmbeddings();

  /// Aggregated embedding of one node at a reference time (inference mode),
  /// drawing its walks from the master RNG.
  Tensor AggregateAt(NodeId node, Timestamp ref_time);

  /// Serializes the complete training state — aggregator parameters, dense
  /// Adam moments and step counter, BatchNorm running statistics, the
  /// embedding table with its sparse per-row Adam state, the RNG stream
  /// state, and the completed-epoch counter — to `path` atomically (temp
  /// file + rename). Implemented in checkpoint.cc; format in checkpoint.h.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a snapshot written by SaveCheckpoint. The model must have
  /// been constructed over the same graph shape and config fingerprint
  /// (seed, dim, variant, LSTM depth). On any validation failure —
  /// truncation, corruption, or fingerprint mismatch — the model is left
  /// unmodified and the Status describes the rejection.
  Status RestoreCheckpoint(const std::string& path);

  /// Epochs completed so far; restored by RestoreCheckpoint, and what
  /// Train() counts toward its target, so a resumed run finishes exactly
  /// the epochs an uninterrupted run would have.
  uint64_t completed_epochs() const { return epoch_index_; }

  const Tensor& embedding_table() const { return embedding_.table(); }
  Embedding* embedding() { return &embedding_; }
  EhnaAggregator* aggregator() { return &aggregator_; }
  const EhnaConfig& config() const { return config_; }
  const Adam& optimizer() const { return optimizer_; }

  /// The master RNG stream (serialized into checkpoints). It draws the epoch
  /// shuffle, initialization, AggregateAt and EdgeLoss; exposed so tests can
  /// replay AggregateAt's draws.
  Rng* mutable_rng() { return &rng_; }

 private:
  /// One data-parallel worker: a replica aggregator with its own parameter
  /// leaves, embedding gradient sink, and scratch stats.
  struct Worker;

  /// Plans every aggregation one edge's loss needs — src, dst, then each
  /// sampled negative — appending to `plans` while consuming `rng` in
  /// exactly the order per-call Aggregate would (walk sampling, fallback
  /// draws and negative sampling interleave). The edge's plan span is
  /// [old plans->size(), plans->size()).
  void PlanEdge(EhnaAggregator* aggregator, const TemporalEdge& edge,
                Rng* rng, std::vector<AggregationPlan>* plans);

  /// Assembles Eq. 6/7 from an edge's slice of packed-aggregation outputs
  /// laid out [zx, zy, negatives...] starting at `base`.
  Var EdgeLossFromZ(const std::vector<Var>& z, size_t base);

  /// The epoch's shuffled (and possibly capped) edge-index order, drawn
  /// from the master RNG — the only master draw an epoch makes.
  std::vector<size_t> ShuffledEpochOrder();

  /// The epoch loop TrainEpoch wraps in telemetry.
  EpochStats RunEpoch();

  /// Clips the reduced gradients, takes one dense Adam step and one
  /// sparse embedding Adam step, and zeroes the dense gradients.
  void OptimizerStep();

  /// Lazily builds the pool (and, for EnsureWorkers, the worker replicas)
  /// sized to ResolvedNumThreads(config_).
  ThreadPool* EnsurePool();
  void EnsureWorkers();

  /// Copies master parameter values and BatchNorm running statistics into a
  /// worker replica (called between optimizer steps, never concurrently
  /// with them).
  void SyncWorkerFromMaster(Worker* worker);

  /// Accumulates a worker's parameter gradients and sparse embedding
  /// gradients into the master, then clears the worker-side state.
  void ReduceWorkerGrads(Worker* worker);

  /// Folds the workers' post-batch BatchNorm running statistics back into
  /// the master as an edge-count-weighted average.
  void MergeWorkerBatchNormStats(size_t num_used);

  const TemporalGraph* graph_;
  EhnaConfig config_;
  Rng rng_;
  Embedding embedding_;
  EhnaAggregator aggregator_;
  NoiseDistribution noise_;
  Adam optimizer_;

  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;

  uint64_t epoch_index_ = 0;  // namespaces the per-edge training streams.
};

}  // namespace ehna

#endif  // EHNA_CORE_MODEL_H_
