// Equivalence tests for the minibatch-packed aggregation path (DESIGN.md
// §10). Contracts enforced here:
//
//  1. Forward equivalence: AggregateBatch produces bitwise the same z as a
//     sequence of legacy Aggregate calls driven by an identically seeded
//     RNG, for every variant, for multi-plan packs with mixed walk
//     lengths, and for the fallback / isolated-node paths.
//  2. Gradient reach: one Backward through a packed batch populates every
//     parameter group and the sparse embedding accumulator.
//  3. Pack-size invariance: an Eq. 6 hinge loss run through one
//     AggregateBatch per edge (mode A) and through one pack of every edge
//     (mode B) leaves bitwise the same state — every z, every parameter
//     gradient (BatchNorm gamma/beta included), the BatchNorm running
//     statistics and the embedding table after one sparse Adam step. The
//     trainer runs one pack per batch or shard; this is what makes its
//     result independent of how edges are grouped.
//  4. Segmented replay: the LSTM and fuse weight gradients the sentinel
//     folds with one GemmTNSegments call per weight equal the per-unit
//     replay it replaced (GemmTN into a fresh tensor + AccumulateGrad per
//     (plan, layer, step)), which lives on below as the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aggregator.h"
#include "graph/generators/generators.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "util/metrics.h"

namespace ehna {
namespace {

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

/// Gradient flags and values of two positionally matching Var lists.
void ExpectSameGrads(const std::vector<Var>& want, const std::vector<Var>& got,
                     const std::string& what) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].impl()->grad_defined, got[i].impl()->grad_defined)
        << what << " param " << i;
    if (!want[i].impl()->grad_defined) continue;
    ExpectBitwiseEqual(want[i].grad(), got[i].grad(),
                       what + " param " + std::to_string(i));
  }
}

/// The edges of the pack-size test: plan indices into one flat plan list.
/// Each edge's pack is its own plan span [first, first + size); its Eq. 6
/// terms compare x with y and with each negative. A plan in the span that
/// no term names is aggregated but never consumed.
struct TestEdge {
  size_t first, size;
  size_t x, y;
  std::vector<size_t> negatives;
};

/// Eq. 6 over `edges`, summed: for every negative v of an edge,
/// Hinge(margin + ||z_x - z_y||² - ||z_x - z_v||²). Margins alternate
/// between -4.5 (never active: the distances of unit vectors lie in [0, 4])
/// and +4.5 (always active), so every edge has an inactive term.
Var HingeLoss(const std::vector<Var>& z, const std::vector<TestEdge>& edges) {
  std::vector<Var> terms;
  for (const TestEdge& e : edges) {
    const Var d_pos = ag::SumSquares(ag::Sub(z[e.x], z[e.y]));
    for (size_t q = 0; q < e.negatives.size(); ++q) {
      const Var d_neg = ag::SumSquares(ag::Sub(z[e.x], z[e.negatives[q]]));
      const float margin = q % 2 == 0 ? -4.5f : 4.5f;
      terms.push_back(ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), margin)));
    }
  }
  return ag::SumN(terms);
}

/// One packed Backward of the Eq. 6 loss in mode B (every plan in one
/// AggregateBatch) and in mode A (one AggregateBatch per edge, one Backward
/// over all of them). Each mode's weight gradients are checked against the
/// per-unit oracle, and the two modes' whole state against each other. Two
/// rounds without clearing the dense gradients cover both the first-write
/// store and the accumulate path.
void ExpectSegmentedReplayMatchesPerUnit(const EhnaConfig& cfg) {
  TemporalGraph g = SmallGraph();
  // Node 3 is planned before any edge exists (the fallback path); node 4
  // sits inside the second edge's pack but no loss term consumes it.
  const std::vector<NodeId> targets = {0, 5, 3, 17, 1, 9, 4, 2, 11};
  const Timestamp late = g.max_time() + 1.0;
  const std::vector<Timestamp> times = {late, late, g.min_time() - 1.0,
                                        late, late, late, late, late, late};
  const std::vector<TestEdge> edges = {{0, 4, 0, 1, {2, 3}},
                                       {4, 5, 4, 5, {7, 8}}};
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
    const std::vector<Var> z_b = agg_b.AggregateBatch(plans_b, true, &trace_b);
    Backward(HingeLoss(z_b, edges));
    ReplayPerUnit(trace_b, layers, oracle_b);
    ExpectSameGrads(oracle_b, weights_b, what + " mode B");

    // Mode A: one pack per edge; the per-call sentinels run in reverse
    // call order.
    const std::vector<Var> oracle_a = OracleFrom(weights_a);
    std::vector<PackedBatchTrace> traces_a;
    std::vector<Var> z_a;
    for (const TestEdge& e : edges) {
      const auto first = plans_a.begin() + static_cast<std::ptrdiff_t>(e.first);
      const std::vector<AggregationPlan> pack(
          first, first + static_cast<std::ptrdiff_t>(e.size));
      traces_a.emplace_back();
      for (const Var& z : agg_a.AggregateBatch(pack, true, &traces_a.back())) {
        z_a.push_back(z);
      }
    }
    Backward(HingeLoss(z_a, edges));
    for (size_t c = traces_a.size(); c-- > 0;) {
      ReplayPerUnit(traces_a[c], layers, oracle_a);
    }
    ExpectSameGrads(oracle_a, weights_a, what + " mode A");

    // Mode A vs mode B: the whole state.
    ASSERT_EQ(z_a.size(), z_b.size());
    for (size_t i = 0; i < z_a.size(); ++i) {
      ExpectBitwiseEqual(z_b[i].value(), z_a[i].value(),
                         what + " z " + std::to_string(i));
    }
    ExpectSameGrads(agg_b.Parameters(), agg_a.Parameters(),
                    what + " mode A vs B");
    const auto bns_a = agg_a.MutableBatchNorms();
    const auto bns_b = agg_b.MutableBatchNorms();
    for (size_t b = 0; b < bns_a.size(); ++b) {
      const std::string bn = what + " BN " + std::to_string(b);
      ASSERT_EQ(bns_b[b]->stats_initialized(), bns_a[b]->stats_initialized())
          << bn;
      ExpectBitwiseEqual(bns_b[b]->running_mean(), bns_a[b]->running_mean(),
                         bn + " running mean");
      ExpectBitwiseEqual(bns_b[b]->running_var(), bns_a[b]->running_var(),
                         bn + " running var");
    }
    emb_a.ApplyAdam(0.01f);
    emb_b.ApplyAdam(0.01f);
    ExpectBitwiseEqual(emb_b.table(), emb_a.table(), what + " embeddings");
    if (::testing::Test::HasFailure()) return;
  }
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

}  // namespace
}  // namespace ehna
