// Differential tests for the packed, tape-free §IV.D inference path
// (DESIGN.md §13). InferenceEngine plans every node and runs the plans
// through AggregateBatch in chunks under a NoTapeScope; the reference here is
// the per-call Aggregate(..., training=false) stack, one tape per node,
// driven by the same per-node streams Rng::Stream(seed ^ kFinalizeStreamSalt,
// v). Every output row must be byte-identical for all four variants, for
// fallback and isolated nodes, at one and four threads, for RefreshInto on a
// node subset, and across chunk boundaries that split plans of different
// lengths; RefreshRows' compact rows must equal RefreshInto's; and one
// trained state must finalize to the same bytes at one, two and four
// threads. Labeled `concurrency` so the TSan job covers the chunked
// parallel fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "graph/generators/generators.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ehna {
namespace {

namespace fs = std::filesystem;

/// A coauthor graph plus two kinds of awkward nodes:
///  - `kZeroWeightNodes` nodes whose only interaction has weight 0, so every
///    temporal walk from them is rejected at step one and the aggregation
///    takes the GraphSAGE-style fallback;
///  - `kIsolatedNodes` nodes with no interaction at all, which finalize to
///    their L2-normalized raw rows without aggregating.
constexpr NodeId kZeroWeightNodes = 4;
constexpr NodeId kIsolatedNodes = 3;

struct MixedGraph {
  TemporalGraph graph;
  NodeId first_zero_weight = 0;
  NodeId first_isolated = 0;
};

MixedGraph MakeMixedGraph() {
  auto base = MakePaperDataset(PaperDataset::kDblp, 0.03, 9);
  EHNA_CHECK(base.ok());
  const TemporalGraph& g = base.value();
  std::vector<TemporalEdge> edges = g.edges();
  const NodeId n = g.num_nodes();
  for (NodeId i = 0; i < kZeroWeightNodes; ++i) {
    edges.push_back({n + i, 3 * i + 1, g.max_time() - i, 0.0f});
  }
  auto built = TemporalGraph::FromEdges(
      std::move(edges), n + kZeroWeightNodes + kIsolatedNodes, g.directed());
  EHNA_CHECK(built.ok());
  return MixedGraph{std::move(built).value(), n, n + kZeroWeightNodes};
}

/// Long enough walks that one chunk holds only a handful of plans, so a
/// finalize crosses many chunk boundaries between plans of different
/// padded lengths.
EhnaConfig TestConfig(EhnaVariant variant, int num_threads) {
  EhnaConfig cfg;
  cfg.variant = variant;
  cfg.dim = 8;
  cfg.num_walks = 4;
  cfg.walk_length = 6;
  cfg.lstm_layers = 2;
  cfg.num_negatives = 1;
  cfg.batch_edges = 8;
  cfg.epochs = 1;
  cfg.max_edges_per_epoch = 32;
  cfg.num_threads = num_threads;
  cfg.seed = 5;
  return cfg;
}

constexpr EhnaVariant kVariants[] = {
    EhnaVariant::kFull, EhnaVariant::kNoAttention, EhnaVariant::kStaticWalk,
    EhnaVariant::kSingleLayer};

/// The isolated-node rule, restated: raw row scaled by 1/||row||.
void NormalizedRawRow(const Embedding& emb, NodeId v, float* dst) {
  const int64_t d = emb.dim();
  const float* src = emb.RowData(v);
  double norm = 0.0;
  for (int64_t j = 0; j < d; ++j) norm += static_cast<double>(src[j]) * src[j];
  const float inv =
      norm > 1e-24 ? 1.0f / static_cast<float>(std::sqrt(norm)) : 0.0f;
  for (int64_t j = 0; j < d; ++j) dst[j] = src[j] * inv;
}

/// Reference row for node v: one per-call Aggregate with its own tape.
void ReferenceRow(EhnaModel* model, const TemporalGraph& g, NodeId v,
                  Rng* rng, float* dst) {
  auto recent = g.MostRecentInteraction(v);
  if (!recent.ok()) {
    NormalizedRawRow(*model->embedding(), v, dst);
    return;
  }
  Var z = model->aggregator()->Aggregate(v, recent.value(),
                                         /*training=*/false, rng);
  std::memcpy(dst, z.value().data(),
              static_cast<size_t>(model->config().dim) * sizeof(float));
  model->embedding()->ClearGradients();
}

Rng NodeStream(const EhnaConfig& cfg, NodeId v) {
  return Rng::Stream(cfg.seed ^ kFinalizeStreamSalt, v);
}

void ExpectRowsEqual(const Tensor& got, const Tensor& want, NodeId v,
                     const std::string& what) {
  ASSERT_EQ(std::memcmp(got.Row(v), want.Row(v),
                        static_cast<size_t>(got.cols()) * sizeof(float)),
            0)
      << what << ": node " << v;
}

uint64_t CounterTotal(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Total();
}

uint64_t PhaseCount(const char* name) {
  return MetricsRegistry::Global().GetHistogram(name)->Merged().count();
}

TEST(PackedInferenceTest, FinalizeMatchesPerCallAggregate) {
  MixedGraph mg = MakeMixedGraph();
  const TemporalGraph& g = mg.graph;
  const NodeId n = g.num_nodes();
  for (const EhnaVariant variant : kVariants) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EhnaVariantName(variant)) + " " +
                   std::to_string(threads) + "T");
      const EhnaConfig cfg = TestConfig(variant, threads);
      EhnaModel model(&g, cfg);
      model.Train();

      ThreadPool pool(static_cast<size_t>(threads));
      InferenceEngine engine(&g, model.embedding(), model.aggregator(), cfg);
      const uint64_t chunks_before = PhaseCount("infer.phase.packed_forward");
      const Tensor got = engine.ComputeFinalEmbeddings(&pool);
      const uint64_t chunks = PhaseCount("infer.phase.packed_forward") -
                              chunks_before;

      const uint64_t fallbacks_before = CounterTotal("agg.fallbacks");
      Tensor want(n, cfg.dim);
      for (NodeId v = 0; v < n; ++v) {
        Rng stream = NodeStream(cfg, v);
        ReferenceRow(&model, g, v, &stream, want.Row(v));
      }
      ASSERT_EQ(got.rows(), static_cast<int64_t>(n));
      for (NodeId v = 0; v < n; ++v) ExpectRowsEqual(got, want, v, "finalize");

      // The graph really exercised the fallback, and the finalize really
      // ran as several multi-plan chunks.
      if (variant != EhnaVariant::kStaticWalk) {
        EXPECT_GE(CounterTotal("agg.fallbacks") - fallbacks_before,
                  uint64_t{kZeroWeightNodes});
      }
      EXPECT_GT(chunks, 1u);
      EXPECT_LT(chunks * 4, static_cast<uint64_t>(n));
    }
  }
}

TEST(PackedInferenceTest, FinalizeWriteBackMatchesPerCallAggregate) {
  // FinalizeEmbeddings = the matrix above + the e_x := z_x write-back.
  MixedGraph mg = MakeMixedGraph();
  const TemporalGraph& g = mg.graph;
  const EhnaConfig cfg = TestConfig(EhnaVariant::kFull, 4);
  EhnaModel model(&g, cfg);
  model.Train();
  Tensor want(g.num_nodes(), cfg.dim);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Rng stream = NodeStream(cfg, v);
    ReferenceRow(&model, g, v, &stream, want.Row(v));
  }
  const Tensor got = model.FinalizeEmbeddings();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ExpectRowsEqual(got, want, v, "finalize");
    ExpectRowsEqual(model.embedding_table(), want, v, "table");
  }
}

TEST(PackedInferenceTest, FinalizeIsIdenticalAtEveryThreadCount) {
  // One trained state, restored from one checkpoint into a model per thread
  // count, finalizes to the same table bytes at 1, 2 and 4 threads.
  MixedGraph mg = MakeMixedGraph();
  const TemporalGraph& g = mg.graph;
  const fs::path dir = fs::temp_directory_path() / "ehna_finalize_threads";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trained = (dir / "trained.ehnc").string();
  for (const EhnaVariant variant : kVariants) {
    SCOPED_TRACE(EhnaVariantName(variant));
    EhnaModel source(&g, TestConfig(variant, 4));
    source.Train();
    ASSERT_TRUE(source.SaveCheckpoint(trained).ok());

    Tensor want;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + "T");
      EhnaModel model(&g, TestConfig(variant, threads));
      ASSERT_TRUE(model.RestoreCheckpoint(trained).ok());
      const Tensor got = model.FinalizeEmbeddings();
      if (threads == 1) {
        want = got;
        continue;
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ExpectRowsEqual(got, want, v, "finalize");
        ExpectRowsEqual(model.embedding_table(), want, v, "table");
      }
    }
  }
  fs::remove_all(dir);
}

TEST(PackedInferenceTest, RefreshIntoSubsetMatchesPerCallAggregate) {
  MixedGraph mg = MakeMixedGraph();
  const TemporalGraph& g = mg.graph;
  const NodeId n = g.num_nodes();
  // Unordered, with fallback and isolated nodes mixed in.
  std::vector<NodeId> subset;
  for (NodeId v = n; v-- > 0;) {
    if (v % 3 == 0 || v >= mg.first_zero_weight) subset.push_back(v);
  }
  std::vector<bool> in_subset(n, false);
  for (const NodeId v : subset) in_subset[v] = true;

  for (const EhnaVariant variant : kVariants) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EhnaVariantName(variant)) + " " +
                   std::to_string(threads) + "T");
      const EhnaConfig cfg = TestConfig(variant, threads);
      EhnaModel model(&g, cfg);
      model.Train();
      InferenceEngine engine(&g, model.embedding(), model.aggregator(), cfg);

      Tensor got(n, cfg.dim);
      got.Fill(7.0f);  // rows outside the subset must keep these bytes.
      engine.RefreshInto(subset, &got);

      Tensor want(n, cfg.dim);
      want.Fill(7.0f);
      for (const NodeId v : subset) {
        Rng stream = NodeStream(cfg, v);
        ReferenceRow(&model, g, v, &stream, want.Row(v));
      }
      for (NodeId v = 0; v < n; ++v) {
        ExpectRowsEqual(got, want, v, in_subset[v] ? "refreshed" : "untouched");
      }
    }
  }
}

TEST(PackedInferenceTest, RefreshRowsMatchesRefreshInto) {
  // The compact-output entry point the serving layer stages refreshes with:
  // row i must byte-equal RefreshInto's row nodes[i], for an unordered node
  // list that mixes regular, fallback and isolated nodes.
  MixedGraph mg = MakeMixedGraph();
  const TemporalGraph& g = mg.graph;
  const NodeId n = g.num_nodes();
  std::vector<NodeId> nodes;
  for (NodeId v = n; v-- > 0;) {
    if (v % 5 == 1 || v >= mg.first_zero_weight) nodes.push_back(v);
  }
  ASSERT_GT(nodes.size(), 2u);

  for (const EhnaVariant variant : kVariants) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EhnaVariantName(variant)) + " " +
                   std::to_string(threads) + "T");
      const EhnaConfig cfg = TestConfig(variant, threads);
      EhnaModel model(&g, cfg);
      model.Train();
      InferenceEngine engine(&g, model.embedding(), model.aggregator(), cfg);

      Tensor full(n, cfg.dim);
      engine.RefreshInto(nodes, &full);
      Tensor rows(static_cast<int64_t>(nodes.size()), cfg.dim);
      engine.RefreshRows(nodes, &rows);
      for (size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_EQ(std::memcmp(rows.Row(static_cast<int64_t>(i)),
                              full.Row(nodes[i]),
                              static_cast<size_t>(cfg.dim) * sizeof(float)),
                  0)
            << "row " << i << " (node " << nodes[i] << ")";
      }
    }
  }
}

TEST(PackedInferenceTest, AggregateAtMatchesPerCallAggregate) {
  MixedGraph mg = MakeMixedGraph();
  const TemporalGraph& g = mg.graph;
  for (const EhnaVariant variant : kVariants) {
    SCOPED_TRACE(EhnaVariantName(variant));
    const EhnaConfig cfg = TestConfig(variant, 1);
    EhnaModel model(&g, cfg);
    model.Train();
    Rng ref_rng = *model.mutable_rng();
    // A regular anchor, an anchor before all of node 2's history (fallback
    // over its full neighborhood), a zero-weight node, and an isolated node
    // (fallback with a zero neighborhood summary).
    const std::vector<std::pair<NodeId, Timestamp>> anchors = {
        {2, g.max_time() + 1.0},
        {2, g.min_time() - 1.0},
        {mg.first_zero_weight, g.max_time()},
        {mg.first_isolated, g.max_time()},
    };
    for (const auto& [v, t] : anchors) {
      const Tensor got = model.AggregateAt(v, t);
      Var want = model.aggregator()->Aggregate(v, t, /*training=*/false,
                                               &ref_rng);
      model.embedding()->ClearGradients();
      ASSERT_EQ(got.numel(), want.value().numel());
      EXPECT_EQ(std::memcmp(got.data(), want.value().data(),
                            static_cast<size_t>(got.numel()) * sizeof(float)),
                0)
          << "node " << v << " at " << t;
    }
    EXPECT_EQ(model.mutable_rng()->Next(), ref_rng.Next());
  }
}

}  // namespace
}  // namespace ehna
