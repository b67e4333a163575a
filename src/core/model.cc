#include "core/model.h"

#include <algorithm>
#include <numeric>

#include "core/checkpoint.h"
#include "core/inference.h"
#include "nn/arena.h"
#include "nn/ops.h"
#include "util/metrics.h"
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

ThreadPool* EhnaModel::EnsurePool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(ResolvedNumThreads(config_)));
  }
  return pool_.get();
}

void EhnaModel::EnsureWorkers() {
  EnsurePool();
  while (workers_.size() < pool_->num_threads()) {
    workers_.push_back(std::make_unique<Worker>(
        graph_, &embedding_, config_,
        Rng::Stream(config_.seed, 0xC0FFEEULL + workers_.size())));
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
  std::vector<AggregationPlan> plans;
  PlanEdge(&aggregator_, edge, &rng_, &plans);
  return EdgeLossFromZ(aggregator_.AggregateBatch(plans, training), 0);
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
  EpochStats stats = RunEpoch();
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

EhnaModel::EpochStats EhnaModel::RunEpoch() {
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
    // 1/count scale makes the reduced gradient the batch-mean gradient.
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
            // Each edge plans from its own RNG stream, so a plan does not
            // depend on the shard it lands in; the shard's aggregations run
            // on one packed tape with a single backward pass.
            std::vector<AggregationPlan> plans;
            std::vector<size_t> edge_base;
            edge_base.reserve(b - a);
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
                if (!loss.defined()) continue;
                worker.loss_sum += loss.value()[0];
                shard_losses.push_back(loss);
                ++worker.edges;
              }
            }
            if (!shard_losses.empty()) {
              Backward(ag::ScalarMul(ag::SumN(shard_losses), inv_count));
            }
          });
    }

    size_t batch_edges = 0;
    {
      // Deterministic reduction: workers merge in shard order, so the result
      // depends only on (seed, num_threads), not on scheduling.
      EHNA_TRACE_PHASE("train.phase.grad_reduce");
      for (size_t w = 0; w < used; ++w) {
        loss_sum += workers_[w]->loss_sum;
        batch_edges += workers_[w]->edges;
        ReduceWorkerGrads(workers_[w].get());
      }
      MergeWorkerBatchNormStats(used);
      // Replica gradients and sinks have been drained into the master (all
      // heap-backed); the worker tapes are dead.
      for (size_t w = 0; w < used; ++w) workers_[w]->arena.Reset();
    }

    // A batch without a loss term (num_negatives = 0) steps nothing; the
    // BatchNorm merge above skipped it too.
    if (batch_edges == 0) continue;
    stats.edges += batch_edges;
    OptimizerStep();
  }

  stats.avg_loss = stats.edges == 0 ? 0.0 : loss_sum / stats.edges;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

void EhnaModel::OptimizerStep() {
  EHNA_TRACE_PHASE("train.phase.optimizer_step");
  ClipGradNorm(optimizer_.params(), config_.grad_clip);
  optimizer_.Step();
  optimizer_.ZeroGrad();
  embedding_.ApplyAdam(config_.learning_rate *
                       config_.embedding_lr_multiplier);
}

std::vector<EhnaModel::EpochStats> EhnaModel::Train(
    int epochs,
    const std::function<void(int, const EpochStats&)>& progress) {
  EHNA_CHECK_GE(config_.epochs, 0)
      << "EhnaConfig::epochs must be non-negative, got " << config_.epochs;
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
  return engine.FinalizeEmbeddings(EnsurePool());
}

}  // namespace ehna
