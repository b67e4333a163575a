#include "core/model.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "core/checkpoint.h"
#include "core/inference.h"
#include "nn/ops.h"
#include "util/metrics.h"
#include "util/pipeline.h"
#include "util/timer.h"

namespace ehna {

namespace {

// Seed salt separating the per-edge training streams from the per-node
// inference streams (inference.h's kFinalizeStreamSalt) and from everything
// the master rng_ draws.
constexpr uint64_t kTrainStreamSalt = 0x45484E4154524E00ULL;  // "EHNATRN"

// Training stream index for edge `position` of epoch `epoch`: the epoch id
// occupies the high bits so streams never collide across epochs (supports
// up to 2^40 edges per epoch and 2^24 epochs).
uint64_t TrainStream(uint64_t epoch, uint64_t position) {
  return (epoch << 40) | position;
}

}  // namespace

/// A data-parallel worker replica. The aggregator owns fresh parameter
/// leaves (initial values are irrelevant — SyncWorkerFromMaster overwrites
/// them before the first forward pass) and routes its embedding gathers to
/// a private sparse sink, so a worker's forward/backward touches no state
/// shared with other workers: the embedding table and graph are only read,
/// and all writes land in the replica's own tape, parameter grads, and
/// sink.
struct EhnaModel::Worker {
  Rng init_rng;
  std::shared_ptr<SparseRowGrads> sink;
  EhnaAggregator aggregator;
  std::vector<Var> params;
  /// Per-replica tape arena: activated on the shard's pool thread for the
  /// batch's forward/backward, Reset by the main thread after the shard's
  /// gradients (which live in it) have been reduced into the master.
  TensorArena arena;
  double loss_sum = 0.0;
  size_t edges = 0;

  Worker(const TemporalGraph* graph, Embedding* embedding,
         const EhnaConfig& config, Rng rng)
      : init_rng(rng),
        sink(std::make_shared<SparseRowGrads>()),
        aggregator(graph, embedding, config, &init_rng),
        params(aggregator.Parameters()) {
    aggregator.set_grad_sink(sink);
  }
};

/// One pipeline slot (DESIGN.md §11): the producer fills `shard_plans` /
/// `shard_edge_base` (heap-backed captures of every RNG draw the batch
/// needs), the consumer then runs the batch's tape inside `arena`. Serial
/// training uses a single shard; data-parallel training pre-partitions the
/// batch with exactly ParallelForShards' decomposition so per-shard
/// gradient reduction order is unchanged. The bounded queues' mutexes are
/// the happens-before edges that hand a slot (and its arena) between the
/// producer and consumer threads; Reset() runs on the consumer after the
/// optimizer step, before the slot is recycled.
struct EhnaModel::BatchPack {
  size_t begin = 0;
  size_t count = 0;
  size_t shards = 0;
  std::vector<std::vector<AggregationPlan>> shard_plans;
  std::vector<std::vector<size_t>> shard_edge_base;
  /// Tape memory for this pack's forward/backward (serial consumer only;
  /// the data-parallel consumer keeps using the worker replica arenas).
  TensorArena arena;
};

EhnaModel::EhnaModel(const TemporalGraph* graph, const EhnaConfig& config)
    : graph_(graph),
      config_(config),
      rng_(config.seed),
      embedding_(graph->num_nodes(), config.dim, &rng_),
      aggregator_(graph, &embedding_, config, &rng_),
      noise_(*graph),
      optimizer_(aggregator_.Parameters(), config.learning_rate) {
  EHNA_CHECK_GT(graph->num_nodes(), 0u);
  EHNA_CHECK_GT(graph->num_edges(), 0u);
}

EhnaModel::~EhnaModel() = default;

int EhnaModel::num_threads() const {
  if (config_.num_threads > 0) return config_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool* EhnaModel::EnsurePool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads()));
  }
  return pool_.get();
}

void EhnaModel::EnsureWorkers() {
  EnsurePool();
  while (workers_.size() < static_cast<size_t>(num_threads())) {
    workers_.push_back(std::make_unique<Worker>(
        graph_, &embedding_, config_,
        Rng::Stream(config_.seed, 0xC0FFEEULL + workers_.size())));
  }
}

bool EhnaModel::PipelineEnabled() const {
  return config_.pipeline_depth > 0 && config_.batched_aggregation &&
         config_.num_negatives > 0;
}

ThreadPool* EhnaModel::EnsurePipelinePool() {
  if (pipeline_pool_ == nullptr) {
    pipeline_pool_ = std::make_unique<ThreadPool>(1);
  }
  return pipeline_pool_.get();
}

void EhnaModel::EnsurePipelineSlots(size_t num_slots) {
  while (pipeline_slots_.size() < num_slots) {
    pipeline_slots_.push_back(std::make_unique<BatchPack>());
  }
}

void EhnaModel::SyncWorkerFromMaster(Worker* worker) {
  const std::vector<Var>& master = optimizer_.params();
  EHNA_CHECK_EQ(master.size(), worker->params.size());
  for (size_t i = 0; i < master.size(); ++i) {
    worker->params[i].mutable_value() = master[i].value();
  }
  const auto master_bns = aggregator_.MutableBatchNorms();
  const auto worker_bns = worker->aggregator.MutableBatchNorms();
  for (size_t b = 0; b < master_bns.size(); ++b) {
    worker_bns[b]->SetRunningStats(master_bns[b]->running_mean(),
                                   master_bns[b]->running_var(),
                                   master_bns[b]->stats_initialized());
  }
}

void EhnaModel::ReduceWorkerGrads(Worker* worker) {
  const std::vector<Var>& master = optimizer_.params();
  for (size_t i = 0; i < master.size(); ++i) {
    const Tensor& g = worker->params[i].grad();
    if (g.numel() > 0) master[i].AccumulateGrad(g);
    worker->params[i].ZeroGrad();
  }
  embedding_.AccumulateSparse(*worker->sink);
  worker->sink->clear();
}

void EhnaModel::MergeWorkerBatchNormStats(size_t num_used) {
  const auto master_bns = aggregator_.MutableBatchNorms();
  for (size_t b = 0; b < master_bns.size(); ++b) {
    Tensor mean, var;
    double total = 0.0;
    for (size_t w = 0; w < num_used; ++w) {
      Worker& worker = *workers_[w];
      BatchNorm1d* bn = worker.aggregator.MutableBatchNorms()[b];
      if (worker.edges == 0 || !bn->stats_initialized()) continue;
      const float weight = static_cast<float>(worker.edges);
      if (mean.numel() == 0) {
        mean = Tensor(bn->running_mean().numel());
        var = Tensor(bn->running_var().numel());
      }
      mean.Axpy(weight, bn->running_mean());
      var.Axpy(weight, bn->running_var());
      total += weight;
    }
    if (total > 0.0) {
      mean.ScaleInPlace(1.0f / static_cast<float>(total));
      var.ScaleInPlace(1.0f / static_cast<float>(total));
      master_bns[b]->SetRunningStats(mean, var, /*initialized=*/true);
    }
  }
}

Var EhnaModel::EdgeLoss(const TemporalEdge& edge, bool training) {
  return EdgeLossOn(&aggregator_, edge, training, &rng_);
}

Var EhnaModel::EdgeLossOn(EhnaAggregator* aggregator, const TemporalEdge& edge,
                          bool training, Rng* rng) {
  const Timestamp t = edge.time;
  Var zx = aggregator->Aggregate(edge.src, t, training, rng);
  Var zy = aggregator->Aggregate(edge.dst, t, training, rng);
  Var d_pos = ag::SumSquares(ag::Sub(zx, zy));

  const NodeId exclude[] = {edge.src, edge.dst};
  std::vector<Var> terms;
  terms.reserve(static_cast<size_t>(config_.num_negatives) *
                (config_.bidirectional_negatives ? 2 : 1));
  auto add_negative_terms = [&](const Var& anchor) {
    for (int q = 0; q < config_.num_negatives; ++q) {
      const NodeId v = noise_.SampleExcluding(exclude, rng);
      Var zv = aggregator->Aggregate(v, t, training, rng);
      Var d_neg = ag::SumSquares(ag::Sub(anchor, zv));
      terms.push_back(
          ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), config_.margin)));
    }
  };
  add_negative_terms(zx);                                   // Eq. 6.
  if (config_.bidirectional_negatives) add_negative_terms(zy);  // Eq. 7.
  return terms.empty() ? Var() : ag::SumN(terms);
}

void EhnaModel::PlanEdge(EhnaAggregator* aggregator, const TemporalEdge& edge,
                         Rng* rng, std::vector<AggregationPlan>* plans) {
  const Timestamp t = edge.time;
  plans->emplace_back();
  aggregator->PlanAggregation(edge.src, t, rng, &plans->back());
  plans->emplace_back();
  aggregator->PlanAggregation(edge.dst, t, rng, &plans->back());
  const NodeId exclude[] = {edge.src, edge.dst};
  const int rounds = config_.bidirectional_negatives ? 2 : 1;
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < config_.num_negatives; ++q) {
      const NodeId v = noise_.SampleExcluding(exclude, rng);
      plans->emplace_back();
      aggregator->PlanAggregation(v, t, rng, &plans->back());
    }
  }
}

Var EhnaModel::EdgeLossFromZ(const std::vector<Var>& z, size_t base) {
  const Var& zx = z[base];
  const Var& zy = z[base + 1];
  Var d_pos = ag::SumSquares(ag::Sub(zx, zy));

  std::vector<Var> terms;
  terms.reserve(static_cast<size_t>(config_.num_negatives) *
                (config_.bidirectional_negatives ? 2 : 1));
  size_t idx = base + 2;
  auto add_negative_terms = [&](const Var& anchor) {
    for (int q = 0; q < config_.num_negatives; ++q) {
      Var d_neg = ag::SumSquares(ag::Sub(anchor, z[idx++]));
      terms.push_back(
          ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), config_.margin)));
    }
  };
  add_negative_terms(zx);                                       // Eq. 6.
  if (config_.bidirectional_negatives) add_negative_terms(zy);  // Eq. 7.
  return terms.empty() ? Var() : ag::SumN(terms);
}

EhnaModel::EpochStats EhnaModel::TrainEpoch() {
  // Epoch-level telemetry (DESIGN.md §8): completed epochs/edges, the last
  // epoch's loss, and walks/sec + edges/sec throughput derived from the
  // walk engine's own counter.
  static Counter* const epochs_total =
      MetricsRegistry::Global().GetCounter("train.epochs");
  static Counter* const edges_total =
      MetricsRegistry::Global().GetCounter("train.edges");
  static Counter* const walks_counter =
      MetricsRegistry::Global().GetCounter("walk.temporal.walks");
  static Gauge* const loss_gauge =
      MetricsRegistry::Global().GetGauge("train.last_epoch_loss");
  static Gauge* const edges_per_sec =
      MetricsRegistry::Global().GetGauge("train.edges_per_sec");
  static Gauge* const walks_per_sec =
      MetricsRegistry::Global().GetGauge("train.walks_per_sec");
  static StreamingHistogram* const epoch_hist =
      MetricsRegistry::Global().GetHistogram("train.phase.epoch");

  const uint64_t walks_before = walks_counter->Total();
  const bool async = PipelineEnabled();
  EpochStats stats =
      num_threads() > 1
          ? (async ? TrainEpochParallelAsync() : TrainEpochParallel())
          : (async ? TrainEpochSerialAsync() : TrainEpochSerial());
  ++epoch_index_;

  epochs_total->Add(1);
  edges_total->Add(stats.edges);
  loss_gauge->Set(stats.avg_loss);
  epoch_hist->Record(static_cast<uint64_t>(stats.seconds * 1e9));
  if (stats.seconds > 0.0) {
    edges_per_sec->Set(static_cast<double>(stats.edges) / stats.seconds);
    walks_per_sec->Set(
        static_cast<double>(walks_counter->Total() - walks_before) /
        stats.seconds);
  }
  return stats;
}

std::vector<size_t> EhnaModel::ShuffledEpochOrder() {
  std::vector<size_t> order(graph_->edges().size());
  std::iota(order.begin(), order.end(), size_t{0});
  rng_.Shuffle(&order);
  if (config_.max_edges_per_epoch > 0 &&
      order.size() > config_.max_edges_per_epoch) {
    order.resize(config_.max_edges_per_epoch);
  }
  return order;
}

EhnaModel::EpochStats EhnaModel::TrainEpochSerial() {
  Timer timer;
  const auto& edges = graph_->edges();
  const std::vector<size_t> order = ShuffledEpochOrder();

  EpochStats stats;
  double loss_sum = 0.0;
  const int batch = std::max(1, config_.batch_edges);
  size_t i = 0;
  while (i < order.size()) {
    bool batch_empty = true;
    {
      // The whole batch tape — every forward value, stashed intermediate,
      // and backward gradient — bump-allocates from arena_. Long-lived
      // state (parameters, Adam moments, BN running stats, the sparse
      // embedding accumulator) stays heap-backed; see DESIGN.md §9.
      EHNA_TRACE_PHASE("train.phase.forward_backward");
      TensorArena::Scope tape_scope(&arena_);
      std::vector<Var> losses;
      losses.reserve(batch);
      if (config_.batched_aggregation) {
        // Plan every aggregation the batch needs up front (consuming the
        // master RNG in exactly the per-edge order), run them all through
        // one packed tape, then assemble each edge's hinge terms from its
        // z slice.
        std::vector<AggregationPlan> plans;
        std::vector<size_t> edge_base;
        edge_base.reserve(batch);
        for (int b = 0; b < batch && i < order.size(); ++i, ++b) {
          edge_base.push_back(plans.size());
          PlanEdge(&aggregator_, edges[order[i]], &rng_, &plans);
        }
        if (!plans.empty()) {
          const std::vector<Var> z =
              aggregator_.AggregateBatch(plans, /*training=*/true);
          for (size_t base : edge_base) {
            Var loss = EdgeLossFromZ(z, base);
            if (loss.defined()) losses.push_back(loss);
          }
        }
      } else {
        // Reference mode: identical machinery, one pack per edge. Losses
        // and gradients are bitwise identical to the batched mode by
        // construction (DESIGN.md §10).
        for (int b = 0; b < batch && i < order.size(); ++i, ++b) {
          std::vector<AggregationPlan> plans;
          PlanEdge(&aggregator_, edges[order[i]], &rng_, &plans);
          const std::vector<Var> z =
              aggregator_.AggregateBatch(plans, /*training=*/true);
          Var loss = EdgeLossFromZ(z, 0);
          if (loss.defined()) losses.push_back(loss);
        }
      }
      if (!losses.empty()) {
        batch_empty = false;
        const auto count = static_cast<float>(losses.size());
        Var mean_loss = ag::ScalarMul(ag::SumN(losses), 1.0f / count);
        loss_sum += mean_loss.value()[0] * count;
        Backward(mean_loss);
      }
    }
    if (batch_empty) break;

    {
      EHNA_TRACE_PHASE("train.phase.optimizer_step");
      ClipGradNorm(optimizer_.params(), config_.grad_clip);
      optimizer_.Step();
      optimizer_.ZeroGrad();
      embedding_.ApplyAdam(config_.learning_rate *
                           config_.embedding_lr_multiplier);
    }
    // Gradients were consumed by the step above; the tape is dead.
    arena_.Reset();
  }

  stats.edges = order.size();
  stats.avg_loss = order.empty() ? 0.0 : loss_sum / order.size();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

EhnaModel::EpochStats EhnaModel::TrainEpochParallel() {
  Timer timer;
  EnsureWorkers();
  const auto& edges = graph_->edges();
  const std::vector<size_t> order = ShuffledEpochOrder();

  EpochStats stats;
  double loss_sum = 0.0;
  const size_t batch = static_cast<size_t>(std::max(1, config_.batch_edges));
  size_t i = 0;
  while (i < order.size()) {
    const size_t begin = i;
    const size_t count = std::min(batch, order.size() - begin);
    i = begin + count;

    const size_t used = std::min(workers_.size(), count);
    for (size_t w = 0; w < used; ++w) SyncWorkerFromMaster(workers_[w].get());

    // Each shard runs its edges sequentially on its own replica tape; the
    // 1/count scale makes the reduced gradient equal the serial batch-mean
    // gradient.
    const float inv_count = 1.0f / static_cast<float>(count);
    {
      EHNA_TRACE_PHASE("train.phase.forward_backward");
      pool_->ParallelForShards(
          count, used, [&](size_t shard, size_t a, size_t b) {
            Worker& worker = *workers_[shard];
            // The shard's tapes (and its replica parameter gradients, which
            // accumulate across the shard's edges) live in the worker's
            // arena; it is Reset by the main thread after reduction.
            TensorArena::Scope tape_scope(&worker.arena);
            worker.loss_sum = 0.0;
            worker.edges = 0;
            // Each edge keeps its own RNG stream (planning consumes it in
            // the legacy per-edge order), but the shard's aggregations run
            // on one packed tape with a single backward pass.
            std::vector<AggregationPlan> plans;
            std::vector<size_t> edge_base;
            edge_base.reserve(b - a);
            if (config_.batched_aggregation) {
              for (size_t j = a; j < b; ++j) {
                const size_t pos = begin + j;
                Rng edge_rng = Rng::Stream(config_.seed ^ kTrainStreamSalt,
                                           TrainStream(epoch_index_, pos));
                edge_base.push_back(plans.size());
                PlanEdge(&worker.aggregator, edges[order[pos]], &edge_rng,
                         &plans);
              }
              std::vector<Var> shard_losses;
              shard_losses.reserve(b - a);
              if (!plans.empty()) {
                const std::vector<Var> z = worker.aggregator.AggregateBatch(
                    plans, /*training=*/true);
                for (size_t base : edge_base) {
                  Var loss = EdgeLossFromZ(z, base);
                  if (loss.defined()) {
                    worker.loss_sum += loss.value()[0];
                    shard_losses.push_back(loss);
                  }
                  ++worker.edges;
                }
              }
              if (!shard_losses.empty()) {
                Backward(ag::ScalarMul(ag::SumN(shard_losses), inv_count));
              }
            } else {
              // Reference mode: one pack per edge, same shard-level
              // backward structure so the two modes stay bitwise equal.
              std::vector<Var> shard_losses;
              shard_losses.reserve(b - a);
              for (size_t j = a; j < b; ++j) {
                const size_t pos = begin + j;
                Rng edge_rng = Rng::Stream(config_.seed ^ kTrainStreamSalt,
                                           TrainStream(epoch_index_, pos));
                std::vector<AggregationPlan> edge_plans;
                PlanEdge(&worker.aggregator, edges[order[pos]], &edge_rng,
                         &edge_plans);
                const std::vector<Var> z = worker.aggregator.AggregateBatch(
                    edge_plans, /*training=*/true);
                Var loss = EdgeLossFromZ(z, 0);
                if (loss.defined()) {
                  worker.loss_sum += loss.value()[0];
                  shard_losses.push_back(loss);
                }
                ++worker.edges;
              }
              if (!shard_losses.empty()) {
                Backward(ag::ScalarMul(ag::SumN(shard_losses), inv_count));
              }
            }
          });
    }

    {
      // Deterministic reduction: workers merge in shard order, so the result
      // depends only on (seed, num_threads), not on scheduling.
      EHNA_TRACE_PHASE("train.phase.grad_reduce");
      for (size_t w = 0; w < used; ++w) {
        loss_sum += workers_[w]->loss_sum;
        ReduceWorkerGrads(workers_[w].get());
      }
      MergeWorkerBatchNormStats(used);
      // Replica gradients and sinks have been drained into the master (all
      // heap-backed); the worker tapes are dead.
      for (size_t w = 0; w < used; ++w) workers_[w]->arena.Reset();
    }

    {
      EHNA_TRACE_PHASE("train.phase.optimizer_step");
      ClipGradNorm(optimizer_.params(), config_.grad_clip);
      optimizer_.Step();
      optimizer_.ZeroGrad();
      embedding_.ApplyAdam(config_.learning_rate *
                           config_.embedding_lr_multiplier);
    }
  }

  stats.edges = order.size();
  stats.avg_loss = order.empty() ? 0.0 : loss_sum / order.size();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

/// The async pipeline (DESIGN.md §11), serial consumer. One producer task
/// on the dedicated pipeline thread walks the epoch's edge order and
/// captures each batch's plans — consuming the master RNG in exactly the
/// synchronous loop's order — into recycled BatchPack slots behind a
/// bounded queue; this (consumer) thread pops packs and runs
/// forward/backward/optimizer, which consumes no RNG. Determinism argument:
/// the RNG draw sequence is a pure function of the edge order, the plan
/// pack fully determines the tape, and AggregateBatch's deferred replay
/// makes gradients pack-independent — so checkpoints are byte-identical to
/// pipeline_depth = 0.
EhnaModel::EpochStats EhnaModel::TrainEpochSerialAsync() {
  Timer timer;
  const auto& edges = graph_->edges();
  const std::vector<size_t> order = ShuffledEpochOrder();

  static Counter* const packs_counter =
      MetricsRegistry::Global().GetCounter("pipeline.packs");

  EpochStats stats;
  double loss_sum = 0.0;
  const size_t batch = static_cast<size_t>(std::max(1, config_.batch_edges));
  const size_t depth = static_cast<size_t>(config_.pipeline_depth);
  const size_t num_slots = depth + 1;  // one in flight + `depth` queued.
  EnsurePipelineSlots(num_slots);
  BoundedQueue<BatchPack*> free_packs(num_slots);
  BoundedQueue<BatchPack*> ready_packs(depth, TrainPipelineQueueMetrics());
  for (size_t s = 0; s < num_slots; ++s) {
    free_packs.Push(pipeline_slots_[s].get());
  }

  ThreadPool* producer = EnsurePipelinePool();
  producer->Submit([&] {
    size_t i = 0;
    while (i < order.size()) {
      std::optional<BatchPack*> slot = free_packs.Pop();
      if (!slot.has_value()) break;  // consumer aborted the epoch.
      BatchPack* pack = *slot;
      pack->begin = i;
      pack->shards = 1;
      pack->shard_plans.resize(1);
      pack->shard_edge_base.resize(1);
      std::vector<AggregationPlan>& plans = pack->shard_plans[0];
      std::vector<size_t>& edge_base = pack->shard_edge_base[0];
      plans.clear();
      edge_base.clear();
      {
        EHNA_TRACE_PHASE("train.phase.pipeline_plan");
        for (size_t b = 0; b < batch && i < order.size(); ++i, ++b) {
          edge_base.push_back(plans.size());
          PlanEdge(&aggregator_, edges[order[i]], &rng_, &plans);
        }
      }
      pack->count = i - pack->begin;
      packs_counter->Add(1);
      if (!ready_packs.Push(pack)) break;
    }
    ready_packs.Close();
  });

  try {
    for (;;) {
      BatchPack* pack = nullptr;
      {
        EHNA_TRACE_PHASE("train.phase.pipeline_wait");
        std::optional<BatchPack*> popped = ready_packs.Pop();
        if (!popped.has_value()) break;  // epoch drained (or producer died).
        pack = *popped;
      }
      {
        EHNA_TRACE_PHASE("train.phase.forward_backward");
        TensorArena::Scope tape_scope(&pack->arena);
        const std::vector<AggregationPlan>& plans = pack->shard_plans[0];
        std::vector<Var> losses;
        losses.reserve(pack->shard_edge_base[0].size());
        if (!plans.empty()) {
          const std::vector<Var> z =
              aggregator_.AggregateBatch(plans, /*training=*/true);
          for (size_t base : pack->shard_edge_base[0]) {
            Var loss = EdgeLossFromZ(z, base);
            if (loss.defined()) losses.push_back(loss);
          }
        }
        if (!losses.empty()) {
          const auto count = static_cast<float>(losses.size());
          Var mean_loss = ag::ScalarMul(ag::SumN(losses), 1.0f / count);
          loss_sum += mean_loss.value()[0] * count;
          Backward(mean_loss);
        }
      }
      {
        EHNA_TRACE_PHASE("train.phase.optimizer_step");
        ClipGradNorm(optimizer_.params(), config_.grad_clip);
        optimizer_.Step();
        optimizer_.ZeroGrad();
        embedding_.ApplyAdam(config_.learning_rate *
                             config_.embedding_lr_multiplier);
      }
      pack->arena.Reset();
      free_packs.Push(pack);
    }
    free_packs.Close();
    producer->Wait();  // surfaces a producer exception at the join point.
  } catch (...) {
    // Unwind without stranding the producer on a queue it can never pass:
    // close both queues, drain the pool without throwing, then rethrow the
    // original error (a later producer error would only mask it).
    ready_packs.Close();
    free_packs.Close();
    producer->CollectError();
    throw;
  }

  stats.edges = order.size();
  stats.avg_loss = order.empty() ? 0.0 : loss_sum / order.size();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

/// Async pipeline, data-parallel consumer. The producer pre-partitions
/// each batch with exactly ParallelForShards' decomposition and captures
/// per-shard plans under the same per-edge RNG streams the synchronous
/// loop derives on the pool threads — streams are keyed on (seed, epoch,
/// edge position), so *where* they are drawn cannot matter. The consumer
/// then syncs the replicas, fans the pre-built shards out across the pool
/// (compute only), and reduces gradients in shard order, unchanged.
EhnaModel::EpochStats EhnaModel::TrainEpochParallelAsync() {
  Timer timer;
  EnsureWorkers();
  const auto& edges = graph_->edges();
  const std::vector<size_t> order = ShuffledEpochOrder();

  static Counter* const packs_counter =
      MetricsRegistry::Global().GetCounter("pipeline.packs");

  EpochStats stats;
  double loss_sum = 0.0;
  const size_t batch = static_cast<size_t>(std::max(1, config_.batch_edges));
  const size_t depth = static_cast<size_t>(config_.pipeline_depth);
  const size_t num_slots = depth + 1;
  EnsurePipelineSlots(num_slots);
  BoundedQueue<BatchPack*> free_packs(num_slots);
  BoundedQueue<BatchPack*> ready_packs(depth, TrainPipelineQueueMetrics());
  for (size_t s = 0; s < num_slots; ++s) {
    free_packs.Push(pipeline_slots_[s].get());
  }

  const size_t num_workers = workers_.size();
  const uint64_t epoch = epoch_index_;
  ThreadPool* producer = EnsurePipelinePool();
  producer->Submit([&, num_workers, epoch] {
    size_t i = 0;
    while (i < order.size()) {
      std::optional<BatchPack*> slot = free_packs.Pop();
      if (!slot.has_value()) break;
      BatchPack* pack = *slot;
      const size_t begin = i;
      const size_t count = std::min(batch, order.size() - begin);
      i = begin + count;
      const size_t used = std::min(num_workers, count);
      const size_t shards = ThreadPool::ResolveShards(count, used);
      pack->begin = begin;
      pack->count = count;
      pack->shards = shards;
      pack->shard_plans.resize(shards);
      pack->shard_edge_base.resize(shards);
      {
        EHNA_TRACE_PHASE("train.phase.pipeline_plan");
        for (size_t s = 0; s < shards; ++s) {
          std::vector<AggregationPlan>& plans = pack->shard_plans[s];
          std::vector<size_t>& edge_base = pack->shard_edge_base[s];
          plans.clear();
          edge_base.clear();
          const auto [a, b] = ThreadPool::ShardBounds(count, shards, s);
          edge_base.reserve(b - a);
          for (size_t j = a; j < b; ++j) {
            const size_t pos = begin + j;
            Rng edge_rng = Rng::Stream(config_.seed ^ kTrainStreamSalt,
                                       TrainStream(epoch, pos));
            edge_base.push_back(plans.size());
            PlanEdge(&aggregator_, edges[order[pos]], &edge_rng, &plans);
          }
        }
      }
      packs_counter->Add(1);
      if (!ready_packs.Push(pack)) break;
    }
    ready_packs.Close();
  });

  try {
    for (;;) {
      BatchPack* pack = nullptr;
      {
        EHNA_TRACE_PHASE("train.phase.pipeline_wait");
        std::optional<BatchPack*> popped = ready_packs.Pop();
        if (!popped.has_value()) break;
        pack = *popped;
      }
      const size_t used = pack->shards;
      for (size_t w = 0; w < used; ++w) {
        SyncWorkerFromMaster(workers_[w].get());
      }

      const float inv_count = 1.0f / static_cast<float>(pack->count);
      {
        EHNA_TRACE_PHASE("train.phase.forward_backward");
        pool_->ParallelForShards(
            pack->count, used, [&](size_t shard, size_t a, size_t b) {
              Worker& worker = *workers_[shard];
              TensorArena::Scope tape_scope(&worker.arena);
              worker.loss_sum = 0.0;
              worker.edges = 0;
              const std::vector<AggregationPlan>& plans =
                  pack->shard_plans[shard];
              const std::vector<size_t>& edge_base =
                  pack->shard_edge_base[shard];
              EHNA_DCHECK(edge_base.size() == b - a);
              std::vector<Var> shard_losses;
              shard_losses.reserve(b - a);
              if (!plans.empty()) {
                const std::vector<Var> z = worker.aggregator.AggregateBatch(
                    plans, /*training=*/true);
                for (size_t base : edge_base) {
                  Var loss = EdgeLossFromZ(z, base);
                  if (loss.defined()) {
                    worker.loss_sum += loss.value()[0];
                    shard_losses.push_back(loss);
                  }
                  ++worker.edges;
                }
              }
              if (!shard_losses.empty()) {
                Backward(ag::ScalarMul(ag::SumN(shard_losses), inv_count));
              }
            });
      }

      {
        EHNA_TRACE_PHASE("train.phase.grad_reduce");
        for (size_t w = 0; w < used; ++w) {
          loss_sum += workers_[w]->loss_sum;
          ReduceWorkerGrads(workers_[w].get());
        }
        MergeWorkerBatchNormStats(used);
        for (size_t w = 0; w < used; ++w) workers_[w]->arena.Reset();
      }

      {
        EHNA_TRACE_PHASE("train.phase.optimizer_step");
        ClipGradNorm(optimizer_.params(), config_.grad_clip);
        optimizer_.Step();
        optimizer_.ZeroGrad();
        embedding_.ApplyAdam(config_.learning_rate *
                             config_.embedding_lr_multiplier);
      }
      free_packs.Push(pack);
    }
    free_packs.Close();
    producer->Wait();
  } catch (...) {
    ready_packs.Close();
    free_packs.Close();
    producer->CollectError();
    throw;
  }

  stats.edges = order.size();
  stats.avg_loss = order.empty() ? 0.0 : loss_sum / order.size();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

std::vector<EhnaModel::EpochStats> EhnaModel::Train(
    int epochs,
    const std::function<void(int, const EpochStats&)>& progress) {
  const uint64_t total =
      static_cast<uint64_t>(epochs > 0 ? epochs : config_.epochs);
  std::unique_ptr<CheckpointManager> checkpoints;
  if (!config_.checkpoint_dir.empty()) {
    checkpoints = std::make_unique<CheckpointManager>(config_.checkpoint_dir,
                                                      config_.checkpoint_keep);
  }
  const uint64_t every =
      static_cast<uint64_t>(std::max(1, config_.checkpoint_every));
  std::vector<EpochStats> history;
  if (epoch_index_ < total) history.reserve(total - epoch_index_);
  // `total` counts *completed* epochs (including ones restored from a
  // checkpoint), so a resumed run finishes exactly the epochs the
  // uninterrupted run would have.
  while (epoch_index_ < total) {
    history.push_back(TrainEpoch());
    if (progress) {
      progress(static_cast<int>(epoch_index_) - 1, history.back());
    }
    if (checkpoints != nullptr &&
        (epoch_index_ % every == 0 || epoch_index_ == total)) {
      EHNA_TRACE_PHASE("train.phase.checkpoint_save");
      const Status st = checkpoints->Save(*this, epoch_index_);
      if (!st.ok()) {
        EHNA_LOG(Warning) << "checkpoint save failed at epoch "
                          << epoch_index_ << ": " << st;
      }
    }
  }
  return history;
}

Tensor EhnaModel::AggregateAt(NodeId node, Timestamp ref_time) {
  NoTapeScope no_tape;
  std::vector<AggregationPlan> plan(1);
  aggregator_.PlanAggregation(node, ref_time, &rng_, &plan[0]);
  return aggregator_.AggregateBatch(plan, /*training=*/false)[0].value();
}

Tensor EhnaModel::FinalizeEmbeddings() {
  InferenceEngine engine(graph_, &embedding_, &aggregator_, config_);
  return engine.FinalizeEmbeddings(&rng_,
                                   num_threads() > 1 ? EnsurePool() : nullptr);
}

}  // namespace ehna
