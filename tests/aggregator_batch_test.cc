// Equivalence tests for the minibatch-packed aggregation path (ISSUE 5
// tentpole, DESIGN.md §10). Three contracts are enforced here:
//
//  1. Forward equivalence: AggregateBatch produces bitwise the same z as a
//     sequence of legacy Aggregate calls driven by an identically seeded
//     RNG, for every variant, for multi-plan packs with mixed walk
//     lengths, and for the fallback / isolated-node paths.
//  2. Training-mode equivalence: a run with `batched_aggregation = true`
//     (one pack per batch/shard) is bitwise identical — checkpoint bytes
//     and final embeddings — to a run with `batched_aggregation = false`
//     (one pack per edge), serial and 4-threaded, metrics on and off.
//  3. Gradient reach: one Backward through a packed batch populates every
//     parameter group and the sparse embedding accumulator.
//  4. Segmented replay: the LSTM and fuse weight gradients the sentinel
//     folds with one GemmTNSegments call per weight equal the per-unit
//     replay it replaced (GemmTN into a fresh tensor + AccumulateGrad per
//     (plan, layer, step)), which lives on below as the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/model.h"
#include "graph/generators/generators.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "util/metrics.h"

namespace ehna {
namespace {

namespace fs = std::filesystem;

TemporalGraph SmallGraph() {
  auto g = MakePaperDataset(PaperDataset::kDigg, 0.05, 42);
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

EhnaConfig SmallConfig() {
  EhnaConfig cfg;
  cfg.dim = 8;
  cfg.num_walks = 3;
  cfg.walk_length = 4;
  cfg.lstm_layers = 2;
  cfg.num_negatives = 1;
  cfg.seed = 1;
  return cfg;
}

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Element-exact comparison; any mismatch reports the first bad index.
void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
  }
}

/// Runs the same aggregation sequence through the legacy per-call path and
/// through one AggregateBatch pack, from identically seeded state, and
/// asserts bitwise-equal outputs. Exercising them in ONE sequence matters:
/// BatchNorm running statistics evolve across calls, so equality here also
/// proves the packed path updates them in the same order.
void ExpectPackMatchesLegacy(const TemporalGraph& g, const EhnaConfig& cfg,
                             const std::vector<NodeId>& targets,
                             const std::vector<Timestamp>& times,
                             bool training) {
  Rng rng_a(7), rng_b(7);
  Embedding emb_a(g.num_nodes(), cfg.dim, &rng_a);
  Embedding emb_b(g.num_nodes(), cfg.dim, &rng_b);
  EhnaAggregator agg_a(&g, &emb_a, cfg, &rng_a);
  EhnaAggregator agg_b(&g, &emb_b, cfg, &rng_b);

  std::vector<Var> legacy;
  for (size_t i = 0; i < targets.size(); ++i) {
    legacy.push_back(agg_a.Aggregate(targets[i], times[i], training, &rng_a));
  }

  std::vector<AggregationPlan> plans(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    agg_b.PlanAggregation(targets[i], times[i], &rng_b, &plans[i]);
  }
  std::vector<Var> packed = agg_b.AggregateBatch(plans, training);

  ASSERT_EQ(packed.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    ExpectBitwiseEqual(legacy[i].value(), packed[i].value(),
                       EhnaVariantName(cfg.variant) + std::string(" plan ") +
                           std::to_string(i));
  }
  emb_a.ClearGradients();
  emb_b.ClearGradients();
}

TEST(AggregatorBatchTest, SinglePlanMatchesLegacyAllVariants) {
  TemporalGraph g = SmallGraph();
  for (EhnaVariant variant :
       {EhnaVariant::kFull, EhnaVariant::kNoAttention,
        EhnaVariant::kStaticWalk, EhnaVariant::kSingleLayer}) {
    EhnaConfig cfg = SmallConfig();
    cfg.variant = variant;
    for (bool training : {true, false}) {
      ExpectPackMatchesLegacy(g, cfg, {2}, {g.max_time() + 1.0}, training);
    }
  }
}

TEST(AggregatorBatchTest, MultiPlanPackMatchesLegacySequenceAllVariants) {
  TemporalGraph g = SmallGraph();
  // Mixed targets force ragged walk lengths (tail plans drop out of the
  // pack mid-sequence) and the fallback path (ref_time before any edge)
  // inside the same pack as standard plans.
  const std::vector<NodeId> targets = {0, 5, 3, 17, 1};
  const std::vector<Timestamp> times = {
      g.max_time() + 1.0, g.max_time() + 1.0, g.min_time() - 1.0,
      g.max_time() + 1.0, g.max_time() + 1.0};
  for (EhnaVariant variant :
       {EhnaVariant::kFull, EhnaVariant::kNoAttention,
        EhnaVariant::kStaticWalk, EhnaVariant::kSingleLayer}) {
    EhnaConfig cfg = SmallConfig();
    cfg.variant = variant;
    ExpectPackMatchesLegacy(g, cfg, targets, times, /*training=*/true);
  }
}

TEST(AggregatorBatchTest, IsolatedNodeInPackMatchesLegacy) {
  auto made = TemporalGraph::FromEdges({{0, 1, 1.0, 1.0f}}, /*num_nodes=*/5);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  // Node 4 is isolated: its fallback pool is empty and its neighborhood
  // summary is the zero vector; packing it next to a connected node must
  // not disturb either output.
  ExpectPackMatchesLegacy(g, SmallConfig(), {4, 0}, {10.0, 10.0},
                          /*training=*/true);
}

TEST(AggregatorBatchTest, GradientsReachAllParameterGroups) {
  TemporalGraph g = SmallGraph();
  Rng rng(4);
  EhnaConfig cfg = SmallConfig();
  Embedding emb(g.num_nodes(), cfg.dim, &rng);
  EhnaAggregator agg(&g, &emb, cfg, &rng);
  std::vector<AggregationPlan> plans(3);
  agg.PlanAggregation(1, g.max_time() + 1.0, &rng, &plans[0]);
  agg.PlanAggregation(2, g.max_time() + 1.0, &rng, &plans[1]);
  agg.PlanAggregation(7, g.max_time() + 1.0, &rng, &plans[2]);
  std::vector<Var> z = agg.AggregateBatch(plans, /*training=*/true);
  std::vector<Var> terms;
  for (const Var& zi : z) terms.push_back(ag::SumSquares(zi));
  Backward(ag::SumN(terms));
  int with_grad = 0;
  for (const Var& p : agg.Parameters()) with_grad += p.grad().numel() > 0;
  EXPECT_GE(with_grad, 8);
  EXPECT_GT(emb.num_pending_rows(), 0u);
  emb.ClearGradients();
}

// ------------------------------------------------ per-unit replay oracle

/// The dense weights whose gradients the sentinel replays, in a fixed
/// order: per LSTM cell w_ih, w_hh, bias (node level, then walk level),
/// then the fuse projection.
std::vector<Var> ReplayedWeights(const EhnaAggregator& agg) {
  const std::vector<Var> params = agg.Parameters();
  // Parameters(): node LSTM, node BN (gamma, beta), walk LSTM, walk BN,
  // fuse — every LSTM cell contributes {w_ih, w_hh, bias}.
  std::vector<Var> weights;
  for (const Var& p : params) {
    const bool is_bn = p.value().rank() == 1 &&
                       p.value().numel() == agg.config().dim;
    if (!is_bn) weights.push_back(p);
  }
  return weights;
}

/// The sentinel's former per-unit LSTM replay: GemmTN over the
/// aggregation's row slice into a fresh tensor, accumulated unit by unit.
void ReplayLstmUnit(const PackedLstmStep& st, int64_t row_off, int64_t k,
                    const Var& w_ih, const Var& w_hh, const Var& bias) {
  if (!st.z.impl()->grad_defined) return;
  const Tensor& xv = st.x.value();
  const Tensor& hv = st.h_prev.value();
  const Tensor& gz = st.z.grad();
  const int64_t four_h = gz.cols();
  Tensor gwi(xv.cols(), four_h);
  kernels::GemmTN(xv.cols(), four_h, k, xv.Row(row_off), gz.Row(row_off),
                  gwi.data(), /*accumulate=*/false);
  w_ih.AccumulateGrad(gwi);
  Tensor gwh(hv.cols(), four_h);
  kernels::GemmTN(hv.cols(), four_h, k, hv.Row(row_off), gz.Row(row_off),
                  gwh.data(), /*accumulate=*/false);
  w_hh.AccumulateGrad(gwh);
  Tensor gb(four_h);
  for (int64_t r = 0; r < k; ++r) {
    kernels::Axpy(four_h, 1.0f, gz.Row(row_off + r), gb.data());
  }
  bias.AccumulateGrad(gb);
}

/// Replays one AggregateBatch call's weight units into `oracle` (positional
/// mirrors of ReplayedWeights) in the former sentinel's order: plans
/// descending; per plan node-level layers and steps descending, walk-level
/// likewise, then the fuse weight. Both LSTMs have `layers` cells.
void ReplayPerUnit(const PackedBatchTrace& trace, int layers,
                   const std::vector<Var>& oracle) {
  // Oracle layout: node cells, walk cells, fuse (3 per cell, then 1).
  auto cell = [&](int first, int l) { return first + 3 * l; };
  const int walk_first = 3 * layers;
  const Var& fuse = oracle[static_cast<size_t>(2 * walk_first)];
  for (size_t pi = trace.plans.size(); pi-- > 0;) {
    const PackedBatchTrace::Plan& plan = trace.plans[pi];
    if (!plan.mm.impl()->grad_defined) continue;
    if (!plan.fallback) {
      for (int l = layers - 1; l >= 0; --l) {
        const size_t c = static_cast<size_t>(cell(0, l));
        for (int64_t t = static_cast<int64_t>(plan.T) - 1; t >= 0; --t) {
          ReplayLstmUnit(trace.node.steps[t][l], plan.row_off, plan.k,
                         oracle[c], oracle[c + 1], oracle[c + 2]);
        }
      }
      if (!plan.single_layer) {
        for (int l = layers - 1; l >= 0; --l) {
          const size_t c = static_cast<size_t>(cell(walk_first, l));
          for (int64_t i = plan.k - 1; i >= 0; --i) {
            ReplayLstmUnit(trace.walk.steps[i][l], plan.walk_pos, 1,
                           oracle[c], oracle[c + 1], oracle[c + 2]);
          }
        }
      }
    }
    fuse.AccumulateGrad(MatMulTransposeA(plan.cmat.value(), plan.mm.grad()));
  }
}

/// Fresh leaves mirroring `weights`, each holding the weight's current
/// gradient (if any) so the oracle accumulates from the same start.
std::vector<Var> OracleFrom(const std::vector<Var>& weights) {
  std::vector<Var> oracle;
  for (const Var& w : weights) {
    Var o = Var::Leaf(w.value(), /*requires_grad=*/true);
    if (w.impl()->grad_defined) o.AccumulateGrad(w.grad());
    oracle.push_back(o);
  }
  return oracle;
}

void ExpectSameWeightGrads(const std::vector<Var>& want,
                           const std::vector<Var>& got,
                           const std::string& what) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].impl()->grad_defined, got[i].impl()->grad_defined)
        << what << " weight " << i;
    if (!want[i].impl()->grad_defined) continue;
    ExpectBitwiseEqual(want[i].grad(), got[i].grad(),
                       what + " weight " + std::to_string(i));
  }
}

/// One packed Backward in mode B (every plan in one AggregateBatch) and in
/// mode A (one AggregateBatch per edge of `per_edge` plans, one Backward
/// over all of them), each checked against the per-unit oracle and
/// against each other. Two rounds without clearing gradients cover both
/// the first-write store and the accumulate path.
void ExpectSegmentedReplayMatchesPerUnit(const EhnaConfig& cfg) {
  TemporalGraph g = SmallGraph();
  const std::vector<NodeId> targets = {0, 5, 3, 17, 1, 9};
  const std::vector<Timestamp> times = {
      g.max_time() + 1.0, g.max_time() + 1.0, g.min_time() - 1.0,
      g.max_time() + 1.0, g.max_time() + 1.0, g.max_time() + 1.0};
  const size_t per_edge = 2;
  const std::string name = EhnaVariantName(cfg.variant) +
                           std::string(" dim ") + std::to_string(cfg.dim);

  Rng rng_a(7), rng_b(7);
  Embedding emb_a(g.num_nodes(), cfg.dim, &rng_a);
  Embedding emb_b(g.num_nodes(), cfg.dim, &rng_b);
  EhnaAggregator agg_a(&g, &emb_a, cfg, &rng_a);
  EhnaAggregator agg_b(&g, &emb_b, cfg, &rng_b);
  const std::vector<Var> weights_a = ReplayedWeights(agg_a);
  const std::vector<Var> weights_b = ReplayedWeights(agg_b);
  const int layers =
      cfg.variant == EhnaVariant::kSingleLayer ? 1 : cfg.lstm_layers;
  ASSERT_EQ(weights_b.size(), static_cast<size_t>(6 * layers + 1));

  for (int round = 0; round < 2; ++round) {
    const std::string what = name + " round " + std::to_string(round);
    std::vector<AggregationPlan> plans_a(targets.size());
    std::vector<AggregationPlan> plans_b(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      agg_a.PlanAggregation(targets[i], times[i], &rng_a, &plans_a[i]);
      agg_b.PlanAggregation(targets[i], times[i], &rng_b, &plans_b[i]);
    }

    // Mode B: one pack.
    const std::vector<Var> oracle_b = OracleFrom(weights_b);
    PackedBatchTrace trace_b;
    std::vector<Var> terms_b;
    for (const Var& z : agg_b.AggregateBatch(plans_b, true, &trace_b)) {
      terms_b.push_back(ag::SumSquares(z));
    }
    Backward(ag::SumN(terms_b));
    ReplayPerUnit(trace_b, layers, oracle_b);
    ExpectSameWeightGrads(oracle_b, weights_b, what + " mode B");

    // Mode A: one pack per edge; the per-call sentinels run in reverse
    // call order.
    const std::vector<Var> oracle_a = OracleFrom(weights_a);
    std::vector<PackedBatchTrace> traces_a;
    std::vector<Var> terms_a;
    for (size_t e = 0; e < plans_a.size(); e += per_edge) {
      const std::vector<AggregationPlan> edge(
          plans_a.begin() + static_cast<std::ptrdiff_t>(e),
          plans_a.begin() + static_cast<std::ptrdiff_t>(e + per_edge));
      traces_a.emplace_back();
      for (const Var& z : agg_a.AggregateBatch(edge, true, &traces_a.back())) {
        terms_a.push_back(ag::SumSquares(z));
      }
    }
    Backward(ag::SumN(terms_a));
    for (size_t c = traces_a.size(); c-- > 0;) {
      ReplayPerUnit(traces_a[c], layers, oracle_a);
    }
    ExpectSameWeightGrads(oracle_a, weights_a, what + " mode A");
    ExpectSameWeightGrads(weights_b, weights_a, what + " mode A vs B");
  }
  emb_a.ClearGradients();
  emb_b.ClearGradients();
}

TEST(AggregatorBatchTest, SegmentedWeightReplayMatchesPerUnitAllVariants) {
  // dim 12 (m = 12, 4H = 48, fuse 24×12) and dim 9 (4H = 36, odd row and
  // column remainders in every segmented tile).
  for (const int64_t dim : {12, 9}) {
    for (EhnaVariant variant :
         {EhnaVariant::kFull, EhnaVariant::kNoAttention,
          EhnaVariant::kStaticWalk, EhnaVariant::kSingleLayer}) {
      EhnaConfig cfg = SmallConfig();
      cfg.dim = dim;
      cfg.num_walks = 4;
      cfg.walk_length = 5;
      cfg.variant = variant;
      ExpectSegmentedReplayMatchesPerUnit(cfg);
      if (HasFailure()) return;
    }
  }
}

TEST(AggregatorBatchTest, ReplaySentinelIsTracedAsGradReplayPhase) {
  // The replay runs once per AggregateBatch call and records its own
  // phase, so its share of forward+backward is visible in the registry.
  TemporalGraph g = SmallGraph();
  Rng rng(4);
  EhnaConfig cfg = SmallConfig();
  Embedding emb(g.num_nodes(), cfg.dim, &rng);
  EhnaAggregator agg(&g, &emb, cfg, &rng);
  std::vector<AggregationPlan> plans(2);
  agg.PlanAggregation(1, g.max_time() + 1.0, &rng, &plans[0]);
  agg.PlanAggregation(2, g.max_time() + 1.0, &rng, &plans[1]);
  const bool metrics_before = MetricsEnabled();
  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Global().Reset();
  std::vector<Var> terms;
  for (const Var& z : agg.AggregateBatch(plans, /*training=*/true)) {
    terms.push_back(ag::SumSquares(z));
  }
  Backward(ag::SumN(terms));
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::SetEnabled(metrics_before);
  const HistogramData* h = snap.Histogram("train.phase.grad_replay");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  emb.ClearGradients();
}

// ---------------------------------------------------- training equivalence

TemporalGraph TinyGraph() {
  auto g = MakePaperDataset(PaperDataset::kDblp, 0.02, 9);
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

EhnaConfig TinyTrainConfig() {
  EhnaConfig cfg;
  cfg.dim = 4;
  cfg.num_walks = 2;
  cfg.walk_length = 3;
  cfg.lstm_layers = 2;
  cfg.num_negatives = 1;
  cfg.batch_edges = 8;
  cfg.epochs = 2;
  cfg.max_edges_per_epoch = 24;
  cfg.learning_rate = 5e-3f;
  cfg.seed = 3;
  return cfg;
}

/// Trains `cfg` for its configured epochs and returns {checkpoint bytes,
/// finalized embeddings}.
std::pair<std::string, Tensor> TrainAndSnapshot(const TemporalGraph& g,
                                                EhnaConfig cfg,
                                                const std::string& dir,
                                                const std::string& tag) {
  EhnaModel model(&g, cfg);
  model.Train();
  const std::string path = dir + "/" + tag + ".ehnc";
  EHNA_CHECK(model.SaveCheckpoint(path).ok());
  Tensor final_emb = model.FinalizeEmbeddings();
  return {ReadBytes(path), std::move(final_emb)};
}

/// The tentpole contract: `batched_aggregation` on/off must be bitwise
/// indistinguishable after training — same checkpoint bytes (parameters,
/// Adam moments, BN statistics, RNG state) and same final embeddings.
void ExpectModesBitwiseIdentical(EhnaConfig cfg, int num_threads,
                                 bool metrics_enabled,
                                 const std::string& dir_tag) {
  TemporalGraph g = TinyGraph();
  cfg.num_threads = num_threads;
  const std::string dir = FreshDir(dir_tag);
  const bool metrics_before = MetricsEnabled();
  MetricsRegistry::SetEnabled(metrics_enabled);

  EhnaConfig per_edge = cfg;
  per_edge.batched_aggregation = false;
  auto [bytes_a, emb_a] = TrainAndSnapshot(g, per_edge, dir, "per_edge");

  EhnaConfig batched = cfg;
  batched.batched_aggregation = true;
  auto [bytes_b, emb_b] = TrainAndSnapshot(g, batched, dir, "batched");

  MetricsRegistry::SetEnabled(metrics_before);
  EXPECT_EQ(bytes_a, bytes_b)
      << dir_tag << ": checkpoint bytes differ between per-edge and "
      << "batched aggregation";
  ExpectBitwiseEqual(emb_a, emb_b, dir_tag + ": final embeddings");
  fs::remove_all(dir);
}

TEST(AggregatorBatchTest, TrainingModesBitwiseIdenticalSerial) {
  ExpectModesBitwiseIdentical(TinyTrainConfig(), /*num_threads=*/1,
                              /*metrics_enabled=*/true,
                              "ehna_aggbatch_serial");
}

TEST(AggregatorBatchTest, TrainingModesBitwiseIdenticalFourThreads) {
  ExpectModesBitwiseIdentical(TinyTrainConfig(), /*num_threads=*/4,
                              /*metrics_enabled=*/true,
                              "ehna_aggbatch_4t");
}

TEST(AggregatorBatchTest, TrainingModesBitwiseIdenticalMetricsOff) {
  ExpectModesBitwiseIdentical(TinyTrainConfig(), /*num_threads=*/4,
                              /*metrics_enabled=*/false,
                              "ehna_aggbatch_nometrics");
}

TEST(AggregatorBatchTest, TrainingModesBitwiseIdenticalAcrossVariants) {
  for (EhnaVariant variant :
       {EhnaVariant::kNoAttention, EhnaVariant::kStaticWalk,
        EhnaVariant::kSingleLayer}) {
    EhnaConfig cfg = TinyTrainConfig();
    cfg.variant = variant;
    cfg.epochs = 1;
    ExpectModesBitwiseIdentical(cfg, /*num_threads=*/1,
                                /*metrics_enabled=*/true,
                                std::string("ehna_aggbatch_") +
                                    EhnaVariantName(variant));
  }
}

TEST(AggregatorBatchTest, TrainingModesBitwiseIdenticalDim12AllVariants) {
  // The segmented replay at a width whose tiles have remainders, 1T and 4T.
  for (EhnaVariant variant :
       {EhnaVariant::kFull, EhnaVariant::kNoAttention,
        EhnaVariant::kStaticWalk, EhnaVariant::kSingleLayer}) {
    for (const int threads : {1, 4}) {
      EhnaConfig cfg = TinyTrainConfig();
      cfg.dim = 12;
      cfg.variant = variant;
      cfg.epochs = 1;
      ExpectModesBitwiseIdentical(cfg, threads, /*metrics_enabled=*/true,
                                  std::string("ehna_aggbatch_dim12_") +
                                      EhnaVariantName(variant) + "_" +
                                      std::to_string(threads) + "t");
    }
  }
}

}  // namespace
}  // namespace ehna
