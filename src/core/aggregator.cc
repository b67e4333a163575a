#include "core/aggregator.h"

#include <algorithm>
#include <unordered_set>

#include "core/attention.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "util/metrics.h"

namespace ehna {

namespace {

TemporalWalkConfig MakeTemporalWalkConfig(const EhnaConfig& c) {
  TemporalWalkConfig w;
  w.p = c.p;
  w.q = c.q;
  w.walk_length = c.walk_length;
  w.num_walks = c.num_walks;
  w.decay_rate = c.decay_rate;
  w.use_time_decay = true;
  return w;
}

Node2VecWalkConfig MakeStaticWalkConfig(const EhnaConfig& c) {
  Node2VecWalkConfig w;
  w.p = c.p;
  w.q = c.q;
  w.walk_length = c.walk_length;
  w.walks_per_node = c.num_walks;
  return w;
}

// ----------------------------------------------------------------------
// Packed-aggregation replay machinery (DESIGN.md §10).
//
// The replay sentinel must not strongly hold any in-graph Var: the tethered
// leaves' parent lists hold the sentinel, so a strong capture would create a
// shared_ptr cycle and leak the whole tape. In-graph nodes are recorded as
// raw VarImpl pointers instead; the loss root keeps them alive for the full
// lifetime of Backward, which is the only time the sentinel runs.

struct RawStep {
  internal::VarImpl* x = nullptr;
  internal::VarImpl* h_prev = nullptr;
  internal::VarImpl* z = nullptr;
};
using RawTrace = std::vector<std::vector<RawStep>>;  // [T][num_layers]

RawTrace ToRaw(const PackedLstmTrace& t) {
  RawTrace raw(t.steps.size());
  for (size_t i = 0; i < t.steps.size(); ++i) {
    raw[i].reserve(t.steps[i].size());
    for (const PackedLstmStep& s : t.steps[i]) {
      raw[i].push_back(RawStep{s.x.impl(), s.h_prev.impl(), s.z.impl()});
    }
  }
  return raw;
}

// Everything the sentinel needs to replay one aggregation's deferred
// parameter/embedding accumulations from its row slice of the packed tape.
struct AggReplay {
  bool fallback = false;
  bool single_layer = false;
  NodeId target = 0;
  // Node-level pack placement: rows [row_off, row_off + k) of every step
  // t < T tensor belong to this aggregation.
  int64_t row_off = 0;
  int64_t k = 0;
  size_t T = 0;
  // Walk-level pack placement (standard variants): one row per step.
  int64_t walk_pos = 0;
  // Per-walk gathers (standard variants).
  std::vector<std::vector<int64_t>> walk_ids;
  std::vector<internal::VarImpl*> walk_leaves;
  std::vector<std::shared_ptr<Tensor>> node_gtargets;  // per-walk Eq. 3 e_x grads
  std::shared_ptr<Tensor> walk_gtarget;                // Eq. 4 e_x grad
  // Flattened gather (EHNA-SL) or fallback-neighborhood gather.
  std::vector<int64_t> flat_ids;
  internal::VarImpl* flat_leaf = nullptr;
  // Target embedding.
  internal::VarImpl* ex_leaf = nullptr;
  std::shared_ptr<Tensor> concat_b;  // e_x grad from the fuse concat
  // Deferred BatchNorm gamma/beta gradients.
  std::shared_ptr<Tensor> node_dg, node_db, walk_dg, walk_db;
  // Fuse projection: z = cmat @ W. gw replays from cmat's value and the
  // matmul node's retained gradient.
  internal::VarImpl* cmat = nullptr;
  internal::VarImpl* mm = nullptr;
};

// One weight's gradient segments, in replay order.
using Segments = std::vector<kernels::GemmTNSegment>;

// The weight-gradient segments of one LSTM cell.
struct CellSegments {
  Segments w_ih, w_hh, bias;
};

// Queues one (aggregation, layer, step) LSTM weight-gradient unit: the
// aggregation's k contiguous rows of the step's x, h_prev and retained z
// gradient. The rows span the tensors' full width, so each segment reads
// exactly the memory a per-aggregation pack would present — bitwise-
// identical contributions no matter how many aggregations share the pack.
// The bias unit is a k×1 column of ones against the z rows, whose fma
// chain from +0 is the plain row sum.
void AddLstmUnit(const RawStep& st, int64_t row_off, int64_t k,
                 const float* ones, CellSegments* out) {
  if (!st.z->grad_defined) return;
  const float* gz = st.z->grad.Row(row_off);
  out->w_ih.push_back({st.x->value.Row(row_off), gz, k});
  out->w_hh.push_back({st.h_prev->value.Row(row_off), gz, k});
  out->bias.push_back({ones, gz, k});
}

// Folds one weight's segments into its gradient with one kernel call. An
// undefined gradient takes the first segment as a store, exactly as
// Var::AccumulateGrad copies its first contribution.
void AccumulateSegments(const Var& param, const Segments& segs) {
  if (segs.empty()) return;
  internal::VarImpl* p = param.impl();
  const Tensor& v = p->value;
  const bool matrix = v.rank() == 2;
  const int64_t m = matrix ? v.rows() : 1;
  const int64_t n = matrix ? v.cols() : v.numel();
  const bool accumulate = p->grad_defined;
  if (!accumulate) {
    p->grad = matrix ? Tensor::Uninit(m, n) : Tensor::Uninit(n);
    p->grad_defined = true;
  }
  kernels::GemmTNSegments(m, n, segs.data(),
                          static_cast<int64_t>(segs.size()), p->grad.data(),
                          accumulate);
}

void AccumulateCellSegments(const StackedLstm& lstm,
                            const std::vector<CellSegments>& segs) {
  for (size_t l = 0; l < segs.size(); ++l) {
    const LstmCell& cell = lstm.cell(static_cast<int>(l));
    AccumulateSegments(cell.w_ih(), segs[l].w_ih);
    AccumulateSegments(cell.w_hh(), segs[l].w_hh);
    AccumulateSegments(cell.bias(), segs[l].bias);
  }
}

}  // namespace

const char* EhnaVariantName(EhnaVariant v) {
  switch (v) {
    case EhnaVariant::kFull:
      return "EHNA";
    case EhnaVariant::kNoAttention:
      return "EHNA-NA";
    case EhnaVariant::kStaticWalk:
      return "EHNA-RW";
    case EhnaVariant::kSingleLayer:
      return "EHNA-SL";
  }
  return "?";
}

EhnaAggregator::EhnaAggregator(const TemporalGraph* graph,
                               Embedding* embedding, const EhnaConfig& config,
                               Rng* rng)
    : graph_(graph),
      embedding_(embedding),
      config_(config),
      use_attention_(config.variant == EhnaVariant::kFull),
      temporal_sampler_(graph, MakeTemporalWalkConfig(config)),
      static_sampler_(graph, MakeStaticWalkConfig(config)),
      node_lstm_(config.dim, config.dim,
                 config.variant == EhnaVariant::kSingleLayer
                     ? 1
                     : config.lstm_layers,
                 rng),
      node_bn_(config.dim),
      walk_lstm_(config.dim, config.dim,
                 config.variant == EhnaVariant::kSingleLayer
                     ? 1
                     : config.lstm_layers,
                 rng),
      walk_bn_(config.dim),
      fuse_(2 * config.dim, config.dim, rng, /*bias=*/false) {
  EHNA_CHECK(graph != nullptr);
  EHNA_CHECK(embedding != nullptr);
  EHNA_CHECK_EQ(embedding->dim(), config.dim);
}

void EhnaAggregator::ResetGraph(const TemporalGraph* graph) {
  EHNA_CHECK(graph != nullptr);
  graph_ = graph;
  temporal_sampler_ = TemporalWalkSampler(graph, MakeTemporalWalkConfig(config_));
  static_sampler_ = Node2VecWalkSampler(graph, MakeStaticWalkConfig(config_));
}

std::vector<Walk> EhnaAggregator::SampleWalks(NodeId target,
                                              Timestamp ref_time, Rng* rng) {
  std::vector<Walk> walks;
  walks.reserve(config_.num_walks);
  if (config_.variant == EhnaVariant::kStaticWalk) {
    for (int i = 0; i < config_.num_walks; ++i) {
      const std::vector<NodeId> nodes = static_sampler_.SampleWalk(target, rng);
      if (nodes.size() < 2) continue;
      Walk w;
      w.reserve(nodes.size());
      for (NodeId v : nodes) w.push_back(WalkStep{v, 0.0, 1.0f});
      walks.push_back(std::move(w));
    }
    return walks;
  }
  // Degenerate anchor: the target's entire history is at-or-after
  // `ref_time`, so each of the k walks would be the bare anchor (length 1)
  // and be dropped below — and, crucially, SampleWalk draws zero RNG for
  // them. Skipping the k calls outright is therefore bitwise-neutral; the
  // counter keeps the case visible (it is what routes the aggregation to
  // the GraphSAGE-style fallback) instead of silently costing k adjacency
  // probes per aggregation.
  if (graph_->NeighborsBefore(target, ref_time).empty()) {
    static Counter* const no_history =
        MetricsRegistry::Global().GetCounter("agg.no_history_targets");
    no_history->Add(1);
    return walks;
  }
  for (Walk& w : temporal_sampler_.SampleWalks(target, ref_time, rng)) {
    if (w.size() < 2) continue;  // no historical neighborhood reached.
    walks.push_back(std::move(w));
  }
  return walks;
}

Var EhnaAggregator::NodeLevel(const std::vector<Walk>& walks,
                              const Var& target_embedding,
                              std::vector<float>* walk_coeffs, bool training) {
  const int64_t dim = config_.dim;
  const size_t k = walks.size();
  walk_coeffs->assign(k, 1.0f);

  // Per walk: gather embeddings and apply node-level attention (Eq. 3).
  std::vector<Var> weighted;  // each [L_i, dim]
  weighted.reserve(k);
  size_t max_len = 0;
  for (size_t i = 0; i < k; ++i) {
    const Walk& walk = walks[i];
    max_len = std::max(max_len, walk.size());
    std::vector<int64_t> ids;
    ids.reserve(walk.size());
    for (const WalkStep& s : walk) ids.push_back(s.node);
    Var emb = embedding_->Gather(ids, grad_sink_);  // [L_i, dim]

    if (use_attention_) {
      const std::vector<float> coeffs = NodeAttentionCoefficients(
          walk, graph_->min_time(), graph_->TimeSpan());
      (*walk_coeffs)[i] = WalkAttentionCoefficient(coeffs);
      // alpha_j = softmax_j(-c_j * ||e_x - e_vj||^2), one fused graph node
      // (kernels::AttentionSoftmaxForward) instead of the former
      // subtract/square/scale/softmax chain.
      Var alpha = ag::AttentionSoftmax(emb, target_embedding,
                                       NegatedCoefficients(coeffs));
      weighted.push_back(ag::ScaleRows(emb, alpha));
    } else {
      weighted.push_back(emb);
    }
  }

  // Batch the k variable-length walks through the stacked LSTM with
  // per-timestep masks (padded rows freeze their state).
  Var zero_row = Var::Leaf(Tensor(dim));
  std::vector<Var> inputs;
  std::vector<Tensor> masks;
  inputs.reserve(max_len);
  masks.reserve(max_len);
  for (size_t t = 0; t < max_len; ++t) {
    std::vector<Var> rows;
    rows.reserve(k);
    Tensor mask(static_cast<int64_t>(k));
    for (size_t i = 0; i < k; ++i) {
      if (t < walks[i].size()) {
        rows.push_back(ag::Row(weighted[i], static_cast<int64_t>(t)));
        mask[static_cast<int64_t>(i)] = 1.0f;
      } else {
        rows.push_back(zero_row);
      }
    }
    inputs.push_back(ag::ConcatRows(rows));
    masks.push_back(std::move(mask));
  }

  Var h = node_lstm_.Forward(inputs, masks);        // [k, dim]
  Var normed = config_.population_batchnorm
                   ? node_bn_.ForwardPopulation(h, training)
                   : node_bn_.Forward(h, training);
  return ag::Relu(normed);  // Algorithm 1 line 4.
}

Var EhnaAggregator::WalkLevel(const Var& walk_reprs,
                              const Var& target_embedding,
                              const std::vector<float>& walk_coeffs,
                              bool training) {
  const int64_t k = walk_reprs.value().rows();
  Var weighted = walk_reprs;
  if (use_attention_ && k > 1) {
    // beta_r = softmax_r(-a_r * ||e_x - h_r||^2)  (Eq. 4), fused.
    Var beta = ag::AttentionSoftmax(walk_reprs, target_embedding,
                                    NegatedCoefficients(walk_coeffs));
    weighted = ag::ScaleRows(walk_reprs, beta);
  }

  // Sequence of k walk representations through the walk-level LSTM
  // (batch of one).
  std::vector<Var> inputs;
  inputs.reserve(k);
  for (int64_t i = 0; i < k; ++i) {
    inputs.push_back(ag::AsMatrix(ag::Row(weighted, i)));
  }
  Var h = walk_lstm_.Forward(inputs, {});            // [1, dim]
  Var normed = config_.population_batchnorm
                   ? walk_bn_.ForwardPopulation(h, training)
                   : walk_bn_.Forward(h, training);
  return ag::AsVector(normed);  // line 6: H.
}

Var EhnaAggregator::SingleLevel(const std::vector<Walk>& walks,
                                bool training) {
  // EHNA-SL: flatten every walk into one long sequence through a
  // single-layer LSTM; no attention, no walk-level stage.
  std::vector<int64_t> ids;
  for (const Walk& w : walks) {
    for (const WalkStep& s : w) ids.push_back(s.node);
  }
  EHNA_CHECK(!ids.empty());
  Var emb = embedding_->Gather(ids, grad_sink_);  // [L, dim]
  std::vector<Var> inputs;
  inputs.reserve(ids.size());
  for (size_t t = 0; t < ids.size(); ++t) {
    inputs.push_back(ag::AsMatrix(ag::Row(emb, static_cast<int64_t>(t))));
  }
  Var h = node_lstm_.Forward(inputs, {});  // [1, dim]
  Var normed = config_.population_batchnorm
                   ? node_bn_.ForwardPopulation(h, training)
                   : node_bn_.Forward(h, training);
  return ag::AsVector(ag::Relu(normed));
}

Var EhnaAggregator::FallbackNeighborhood(NodeId target, Timestamp ref_time,
                                         Rng* rng) {
  // GraphSAGE-style: mean embedding of a sampled 1- and 2-hop neighborhood.
  auto hist = graph_->NeighborsBefore(target, ref_time);
  std::span<const AdjEntry> pool =
      hist.empty() ? graph_->Neighbors(target) : hist;
  if (pool.empty()) {
    // Isolated node: the neighborhood summary is zero; the fused output
    // then depends only on e_x.
    return Var::Leaf(Tensor(config_.dim));
  }
  std::vector<int64_t> ids;
  const size_t want = static_cast<size_t>(config_.fallback_samples);
  for (size_t idx : rng->SampleWithoutReplacement(pool.size(), want)) {
    const NodeId nbr = pool[idx].neighbor;
    ids.push_back(nbr);
    // One 2-hop sample per 1-hop neighbor.
    auto second = graph_->Neighbors(nbr);
    if (!second.empty()) {
      ids.push_back(second[rng->UniformInt(second.size())].neighbor);
    }
  }
  Var emb = embedding_->Gather(ids, grad_sink_);
  return ag::ColMean(emb);
}

Var EhnaAggregator::Fuse(const Var& neighborhood,
                         const Var& target_embedding) {
  Var z = fuse_.ForwardVec(ag::Concat(neighborhood, target_embedding));
  return ag::L2Normalize(z);  // Algorithm 1 line 8.
}

Var EhnaAggregator::Aggregate(NodeId target, Timestamp ref_time, bool training,
                              Rng* rng) {
  static Counter* const aggregations =
      MetricsRegistry::Global().GetCounter("agg.aggregations");
  static Counter* const fallbacks =
      MetricsRegistry::Global().GetCounter("agg.fallbacks");
  aggregations->Add(1);

  Var e_x = embedding_->GatherRow(target, grad_sink_);
  std::vector<Walk> walks;
  {
    // Separates neighborhood sampling cost from the neural forward pass in
    // the Table VIII phase breakdown (nested inside forward_backward).
    EHNA_TRACE_PHASE("train.phase.walk_sampling");
    walks = SampleWalks(target, ref_time, rng);
  }
  if (walks.empty()) {
    fallbacks->Add(1);  // no historical neighborhood: GraphSAGE-style path.
    return Fuse(FallbackNeighborhood(target, ref_time, rng), e_x);
  }
  if (config_.variant == EhnaVariant::kSingleLayer) {
    return Fuse(SingleLevel(walks, training), e_x);
  }
  std::vector<float> walk_coeffs;
  Var walk_reprs = NodeLevel(walks, e_x, &walk_coeffs, training);
  Var h = WalkLevel(walk_reprs, e_x, walk_coeffs, training);
  return Fuse(h, e_x);
}

void EhnaAggregator::PlanAggregation(NodeId target, Timestamp ref_time,
                                     Rng* rng, AggregationPlan* plan) {
  static Counter* const aggregations =
      MetricsRegistry::Global().GetCounter("agg.aggregations");
  static Counter* const fallbacks =
      MetricsRegistry::Global().GetCounter("agg.fallbacks");
  aggregations->Add(1);

  plan->target = target;
  plan->ref_time = ref_time;
  plan->fallback_ids.clear();
  {
    EHNA_TRACE_PHASE("train.phase.walk_sampling");
    plan->walks = SampleWalks(target, ref_time, rng);
  }
  if (!plan->walks.empty()) return;

  // Replicate FallbackNeighborhood's draws (same order, same counts).
  fallbacks->Add(1);
  auto hist = graph_->NeighborsBefore(target, ref_time);
  std::span<const AdjEntry> pool =
      hist.empty() ? graph_->Neighbors(target) : hist;
  if (pool.empty()) return;  // isolated: zero neighborhood summary.
  const size_t want = static_cast<size_t>(config_.fallback_samples);
  for (size_t idx : rng->SampleWithoutReplacement(pool.size(), want)) {
    const NodeId nbr = pool[idx].neighbor;
    plan->fallback_ids.push_back(nbr);
    auto second = graph_->Neighbors(nbr);
    if (!second.empty()) {
      plan->fallback_ids.push_back(
          second[rng->UniformInt(second.size())].neighbor);
    }
  }
}

std::vector<Var> EhnaAggregator::AggregateBatch(
    const std::vector<AggregationPlan>& plans, bool training,
    PackedBatchTrace* trace) {
  EHNA_CHECK(!plans.empty());
  const int64_t dim = config_.dim;
  const size_t P = plans.size();
  const bool single_layer = config_.variant == EhnaVariant::kSingleLayer;

  auto replays = std::make_shared<std::vector<AggReplay>>(P);
  std::vector<Var> ex_leaves(P);
  std::vector<Var> tether_leaves;  // every deferred-gather leaf
  std::vector<std::vector<Var>> weighted(P);  // node-pack sources per walk
  std::vector<std::vector<float>> walk_coeffs(P);
  std::vector<Var> flat_emb(P);  // EHNA-SL flattened gather per plan
  std::vector<Var> H(P);         // neighborhood summary per plan

  // ---- Per-plan leaves, node-level attention weights (plan order). ----
  for (size_t p = 0; p < P; ++p) {
    const AggregationPlan& plan = plans[p];
    AggReplay& rep = (*replays)[p];
    rep.target = plan.target;
    rep.concat_b = std::make_shared<Tensor>(dim);
    Var e_x = embedding_->GatherRowDeferred(plan.target);
    ex_leaves[p] = e_x;
    tether_leaves.push_back(e_x);
    rep.ex_leaf = e_x.impl();

    if (plan.walks.empty()) {
      rep.fallback = true;
      rep.flat_ids.assign(plan.fallback_ids.begin(), plan.fallback_ids.end());
      if (rep.flat_ids.empty()) {
        // Isolated node: the summary is zero; z depends only on e_x.
        H[p] = Var::Leaf(Tensor(dim));
      } else {
        Var emb = embedding_->GatherDeferred(rep.flat_ids);
        tether_leaves.push_back(emb);
        rep.flat_leaf = emb.impl();
        H[p] = ag::ColMean(emb);
      }
      continue;
    }

    if (single_layer) {
      rep.single_layer = true;
      for (const Walk& w : plan.walks) {
        for (const WalkStep& s : w) rep.flat_ids.push_back(s.node);
      }
      Var emb = embedding_->GatherDeferred(rep.flat_ids);
      tether_leaves.push_back(emb);
      rep.flat_leaf = emb.impl();
      flat_emb[p] = emb;
      rep.T = rep.flat_ids.size();
      rep.k = 1;
      continue;
    }

    const size_t k = plan.walks.size();
    rep.k = static_cast<int64_t>(k);
    walk_coeffs[p].assign(k, 1.0f);
    weighted[p].reserve(k);
    for (size_t i = 0; i < k; ++i) {
      const Walk& walk = plan.walks[i];
      rep.T = std::max(rep.T, walk.size());
      std::vector<int64_t> ids;
      ids.reserve(walk.size());
      for (const WalkStep& s : walk) ids.push_back(s.node);
      Var emb = embedding_->GatherDeferred(ids);
      tether_leaves.push_back(emb);
      rep.walk_leaves.push_back(emb.impl());
      rep.walk_ids.push_back(std::move(ids));
      if (use_attention_) {
        const std::vector<float> coeffs = NodeAttentionCoefficients(
            walk, graph_->min_time(), graph_->TimeSpan());
        walk_coeffs[p][i] = WalkAttentionCoefficient(coeffs);
        auto gt = std::make_shared<Tensor>(dim);
        rep.node_gtargets.push_back(gt);
        Var alpha = ag::AttentionSoftmaxDeferredTarget(
            emb, e_x.value(), NegatedCoefficients(coeffs), gt, e_x);
        weighted[p].push_back(ag::ScaleRows(emb, alpha));
      } else {
        weighted[p].push_back(emb);
      }
    }
  }

  // ---- Node-level pack: sequences sorted by descending padded length so
  // whole plans drop off the tail as steps proceed. ----
  std::vector<size_t> node_order;
  for (size_t p = 0; p < P; ++p) {
    if (!(*replays)[p].fallback) node_order.push_back(p);
  }
  std::stable_sort(node_order.begin(), node_order.end(),
                   [&](size_t a, size_t b) {
                     return (*replays)[a].T > (*replays)[b].T;
                   });
  int64_t row_off = 0;
  size_t max_t = 0;
  for (size_t p : node_order) {
    (*replays)[p].row_off = row_off;
    row_off += (*replays)[p].k;
    max_t = std::max(max_t, (*replays)[p].T);
  }

  PackedLstmTrace node_trace;
  if (!node_order.empty()) {
    std::vector<Var> inputs;
    std::vector<Tensor> masks;
    inputs.reserve(max_t);
    if (!single_layer) masks.reserve(max_t);
    for (size_t t = 0; t < max_t; ++t) {
      std::vector<Var> sources;
      std::vector<ag::PackedRowRef> refs;
      int64_t n_t = 0;
      for (size_t p : node_order) {
        if (t >= (*replays)[p].T) break;  // sorted: the tail is done too.
        n_t += (*replays)[p].k;
      }
      sources.reserve(n_t);
      refs.reserve(n_t);
      Tensor mask(n_t);
      for (size_t p : node_order) {
        if (t >= (*replays)[p].T) break;
        if (single_layer) {
          refs.push_back({static_cast<int32_t>(sources.size()),
                          static_cast<int32_t>(t)});
          sources.push_back(flat_emb[p]);
        } else {
          for (size_t i = 0; i < plans[p].walks.size(); ++i) {
            const int32_t src = static_cast<int32_t>(sources.size());
            sources.push_back(weighted[p][i]);
            if (t < plans[p].walks[i].size()) {
              mask[static_cast<int64_t>(refs.size())] = 1.0f;
              refs.push_back({src, static_cast<int32_t>(t)});
            } else {
              refs.push_back({-1, 0});  // padded row inside the plan's block
            }
          }
        }
      }
      inputs.push_back(ag::PackRows(sources, refs, dim));
      if (!single_layer) masks.push_back(std::move(mask));
    }
    node_trace = node_lstm_.ForwardPacked(inputs, masks);
  }

  // ---- Node-level readouts -> BN -> ReLU, in plan order so each
  // BatchNorm object sees exactly the per-call input sequence (and hence
  // running-statistic updates) the per-edge path would produce. ----
  std::vector<Var> relu_reprs(P);
  for (size_t p = 0; p < P; ++p) {
    AggReplay& rep = (*replays)[p];
    if (rep.fallback) continue;
    Var h = ag::SegmentRows(node_trace.top_h[rep.T - 1], rep.row_off, rep.k);
    rep.node_dg = std::make_shared<Tensor>(dim);
    rep.node_db = std::make_shared<Tensor>(dim);
    Var normed = config_.population_batchnorm
                     ? node_bn_.ForwardPopulationDeferred(h, training,
                                                          rep.node_dg,
                                                          rep.node_db)
                     : node_bn_.ForwardDeferred(h, training, rep.node_dg,
                                                rep.node_db);
    Var relu = ag::Relu(normed);
    if (single_layer) {
      H[p] = ag::AsVector(relu);
    } else {
      relu_reprs[p] = relu;
    }
  }

  // ---- Walk-level stage (standard variants): attention, then one packed
  // pass with one sequence (of its k walk representations) per plan. ----
  PackedLstmTrace walk_trace;
  if (!single_layer) {
    std::vector<Var> weighted_w(P);
    std::vector<size_t> walk_order;
    for (size_t p = 0; p < P; ++p) {
      AggReplay& rep = (*replays)[p];
      if (rep.fallback) continue;
      Var wr = relu_reprs[p];
      if (use_attention_ && rep.k > 1) {
        rep.walk_gtarget = std::make_shared<Tensor>(dim);
        Var beta = ag::AttentionSoftmaxDeferredTarget(
            wr, ex_leaves[p].value(), NegatedCoefficients(walk_coeffs[p]),
            rep.walk_gtarget, ex_leaves[p]);
        weighted_w[p] = ag::ScaleRows(wr, beta);
      } else {
        weighted_w[p] = wr;
      }
      walk_order.push_back(p);
    }
    std::stable_sort(walk_order.begin(), walk_order.end(),
                     [&](size_t a, size_t b) {
                       return (*replays)[a].k > (*replays)[b].k;
                     });
    if (!walk_order.empty()) {
      for (size_t pos = 0; pos < walk_order.size(); ++pos) {
        (*replays)[walk_order[pos]].walk_pos = static_cast<int64_t>(pos);
      }
      const int64_t max_k = (*replays)[walk_order[0]].k;
      std::vector<Var> inputs;
      inputs.reserve(max_k);
      for (int64_t i = 0; i < max_k; ++i) {
        std::vector<Var> sources;
        std::vector<ag::PackedRowRef> refs;
        for (size_t p : walk_order) {
          if (i >= (*replays)[p].k) break;
          refs.push_back({static_cast<int32_t>(sources.size()),
                          static_cast<int32_t>(i)});
          sources.push_back(weighted_w[p]);
        }
        inputs.push_back(ag::PackRows(sources, refs, dim));
      }
      walk_trace = walk_lstm_.ForwardPacked(inputs, {});
    }
    for (size_t p = 0; p < P; ++p) {
      AggReplay& rep = (*replays)[p];
      if (rep.fallback) continue;
      Var hw =
          ag::SegmentRows(walk_trace.top_h[rep.k - 1], rep.walk_pos, 1);
      rep.walk_dg = std::make_shared<Tensor>(dim);
      rep.walk_db = std::make_shared<Tensor>(dim);
      Var normed = config_.population_batchnorm
                       ? walk_bn_.ForwardPopulationDeferred(hw, training,
                                                            rep.walk_dg,
                                                            rep.walk_db)
                       : walk_bn_.ForwardDeferred(hw, training, rep.walk_dg,
                                                  rep.walk_db);
      H[p] = ag::AsVector(normed);
    }
  }

  // ---- Fuse + L2-normalize per plan (plan order). ----
  std::vector<Var> outputs(P);
  if (trace != nullptr) *trace = {node_trace, walk_trace, {}};
  for (size_t p = 0; p < P; ++p) {
    AggReplay& rep = (*replays)[p];
    Var concat = ag::ConcatDeferredB(H[p], ex_leaves[p].value(), rep.concat_b,
                                     ex_leaves[p]);
    Var cmat = ag::AsMatrix(concat);
    Var mm = ag::MatMulNoWeightGrad(cmat, fuse_.weight());
    rep.cmat = cmat.impl();
    rep.mm = mm.impl();
    outputs[p] = ag::L2Normalize(ag::AsVector(mm));
    if (trace != nullptr) {
      trace->plans.push_back({rep.fallback, rep.single_layer, rep.row_off,
                              rep.k, rep.T, rep.walk_pos, cmat, mm});
    }
  }

  // Forward-only (NoTapeScope): nothing will run backward, so there is
  // nothing to replay.
  if (NoTapeScope::active()) return outputs;

  // ---- Replay sentinel: a parentless hooked node, pre-seeded so the
  // engine runs it, tethered under every deferred-gather leaf so it is the
  // earliest post-order node of the region — i.e. the LAST closure to
  // execute. It rebuilds all order-sensitive accumulations in canonical
  // reverse-plan order, making gradients independent of pack width. ----
  RawTrace node_raw = ToRaw(node_trace);
  RawTrace walk_raw = ToRaw(walk_trace);
  std::shared_ptr<SparseRowGrads> sink = grad_sink_;
  EhnaAggregator* self = this;
  Var sentinel = Var::Op(
      Tensor(1), {},
      [self, replays, node_raw, walk_raw, sink](const Tensor&,
                                                const Tensor&) {
        EHNA_TRACE_PHASE("train.phase.grad_replay");
        std::vector<CellSegments> node_segs(self->node_lstm_.num_layers());
        std::vector<CellSegments> walk_segs(self->walk_lstm_.num_layers());
        Segments fuse_segs;
        int64_t max_k = 1;
        for (const AggReplay& rep : *replays) max_k = std::max(max_k, rep.k);
        const std::vector<float> ones(static_cast<size_t>(max_k), 1.0f);
        for (size_t pi = replays->size(); pi-- > 0;) {
          const AggReplay& rep = (*replays)[pi];
          // Every path out of an aggregation runs through its fuse matmul,
          // so an undefined gradient there means no loss term consumed this
          // plan's output — nothing in its region executed, and a per-edge
          // pack would never have replayed it either.
          if (rep.mm == nullptr || !rep.mm->grad_defined) continue;
          if (!rep.fallback) {
            // (a) Node-level LSTM weight units, step-descending per layer,
            // mirroring reverse execution order of the forward tape.
            for (size_t l = 0; l < node_segs.size(); ++l) {
              for (int64_t t = static_cast<int64_t>(rep.T) - 1; t >= 0; --t) {
                AddLstmUnit(node_raw[t][l], rep.row_off, rep.k, ones.data(),
                            &node_segs[l]);
              }
            }
            // (b) Walk-level LSTM weight units (not in EHNA-SL).
            if (!rep.single_layer) {
              for (size_t l = 0; l < walk_segs.size(); ++l) {
                for (int64_t i = rep.k - 1; i >= 0; --i) {
                  AddLstmUnit(walk_raw[i][l], rep.walk_pos, 1, ones.data(),
                              &walk_segs[l]);
                }
              }
            }
            // (c) BatchNorm gamma/beta from the deferred buffers.
            self->node_bn_.gamma().AccumulateGrad(*rep.node_dg);
            self->node_bn_.beta().AccumulateGrad(*rep.node_db);
            if (!rep.single_layer) {
              self->walk_bn_.gamma().AccumulateGrad(*rep.walk_dg);
              self->walk_bn_.beta().AccumulateGrad(*rep.walk_db);
            }
          }
          // (d) Fuse projection weight unit: gW = cmat^T @ g_mm.
          fuse_segs.push_back({rep.cmat->value.data(), rep.mm->grad.data(), 1});
          // (e) Sparse embedding scatter, exactly as the Gather hooks
          // would, in walk-ascending order.
          if (rep.flat_leaf != nullptr && rep.flat_leaf->grad_defined) {
            self->embedding_->ScatterGrads(rep.flat_ids, rep.flat_leaf->grad,
                                           sink);
          }
          for (size_t w = 0; w < rep.walk_leaves.size(); ++w) {
            if (rep.walk_leaves[w]->grad_defined) {
              self->embedding_->ScatterGrads(rep.walk_ids[w],
                                             rep.walk_leaves[w]->grad, sink);
            }
          }
          // (f) e_x: sum the deferred buffers in fixed order (fuse concat,
          // walk-level attention, node-level attention walk-ascending) and
          // scatter once, as the GatherRow hook would.
          Tensor gex = *rep.concat_b;
          if (rep.walk_gtarget) gex.AddInPlace(*rep.walk_gtarget);
          for (const auto& gt : rep.node_gtargets) gex.AddInPlace(*gt);
          self->embedding_->ScatterRowGrad(rep.target, gex, sink);
        }
        // (g) One segmented accumulation per weight, each over its units in
        // reverse-plan order. Distinct weights share no storage, so the
        // order across them is free.
        AccumulateCellSegments(self->node_lstm_, node_segs);
        AccumulateCellSegments(self->walk_lstm_, walk_segs);
        AccumulateSegments(self->fuse_.weight(), fuse_segs);
      },
      "agg_replay");
  sentinel.impl()->grad = Tensor(1);
  sentinel.impl()->grad_defined = true;
  for (const Var& leaf : tether_leaves) {
    leaf.impl()->parents.push_back(sentinel);
  }
  return outputs;
}

std::vector<Var> EhnaAggregator::Parameters() const {
  std::vector<Var> params;
  for (const auto& module_params :
       {node_lstm_.Parameters(), node_bn_.Parameters(),
        walk_lstm_.Parameters(), walk_bn_.Parameters(),
        fuse_.Parameters()}) {
    params.insert(params.end(), module_params.begin(), module_params.end());
  }
  return params;
}

}  // namespace ehna
