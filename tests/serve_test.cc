// Inference-core / serving-subsystem equivalence tests (ISSUE 9 tentpole):
// (a) the standalone InferenceEngine must be byte-identical to the
// pre-split EhnaModel::FinalizeEmbeddings — embedding bytes AND checkpoint
// bytes, serial and parallel; (b) the dynamic overlay's compacted graph
// must walk bitwise-identically to a TemporalGraph rebuilt from scratch
// over the same edges; (c) the IVF-flat ANN index must reach recall@10 >=
// 0.95 against the exact scan; (d) concurrent ingest + query must be
// data-race-free (run under TSan via the `concurrency` ctest label), and
// readers must only ever see whole refreshes.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "eval/ann.h"
#include "eval/knn.h"
#include "graph/dynamic_graph.h"
#include "graph/generators/generators.h"
#include "nn/quant.h"
#include "serve/embedding_server.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "walk/temporal_walk.h"

namespace ehna {
namespace {

namespace fs = std::filesystem;

TemporalGraph TinyGraph() {
  auto g = MakePaperDataset(PaperDataset::kDblp, 0.02, 9);
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

EhnaConfig TinyConfig() {
  EhnaConfig cfg;
  cfg.dim = 8;
  cfg.num_walks = 2;
  cfg.walk_length = 3;
  cfg.num_negatives = 1;
  cfg.batch_edges = 8;
  cfg.lstm_layers = 1;
  cfg.epochs = 1;
  cfg.max_edges_per_epoch = 24;
  cfg.learning_rate = 5e-3f;
  cfg.seed = 7;
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

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// --------------------------------------------- (a) inference-core equality

// Model A runs the (delegating) member FinalizeEmbeddings; model B restores
// the same snapshot and runs a standalone InferenceEngine over its state.
// Both the returned matrices, the post-finalize tables, and the
// post-finalize checkpoint files must agree byte-for-byte.
void CheckEngineMatchesModel(int num_threads, const std::string& tag) {
  TemporalGraph g = TinyGraph();
  EhnaConfig cfg = TinyConfig();
  cfg.num_threads = num_threads;
  const std::string dir = FreshDir("ehna_serve_engine_" + tag);

  EhnaModel a(&g, cfg);
  a.Train();
  const std::string trained = dir + "/trained.ehnc";
  ASSERT_TRUE(a.SaveCheckpoint(trained).ok());

  EhnaModel b(&g, cfg);
  ASSERT_TRUE(b.RestoreCheckpoint(trained).ok());

  const Tensor via_model = a.FinalizeEmbeddings();
  InferenceEngine engine(&g, b.embedding(), b.aggregator(), cfg);
  const Tensor via_engine = engine.FinalizeEmbeddings();

  EXPECT_TRUE(SameBytes(via_model, via_engine));
  EXPECT_TRUE(SameBytes(a.embedding_table(), b.embedding_table()));

  const std::string ckpt_a = dir + "/final_a.ehnc";
  const std::string ckpt_b = dir + "/final_b.ehnc";
  ASSERT_TRUE(a.SaveCheckpoint(ckpt_a).ok());
  ASSERT_TRUE(b.SaveCheckpoint(ckpt_b).ok());
  const std::string bytes_a = ReadBytes(ckpt_a);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, ReadBytes(ckpt_b));
  fs::remove_all(dir);
}

TEST(InferenceEngineTest, MatchesModelFinalizeSerial) {
  CheckEngineMatchesModel(1, "1t");
}

TEST(InferenceEngineTest, MatchesModelFinalizeParallel) {
  CheckEngineMatchesModel(4, "4t");
}

// RefreshInto must reproduce the parallel finalize's per-node streams node
// by node: refreshing any subset of nodes yields exactly those rows of the
// full parallel finalize.
TEST(InferenceEngineTest, RefreshIntoMatchesParallelFinalizeRows) {
  TemporalGraph g = TinyGraph();
  EhnaConfig cfg = TinyConfig();
  cfg.num_threads = 4;

  EhnaModel model(&g, cfg);
  model.Train();
  InferenceEngine engine(&g, model.embedding(), model.aggregator(), cfg);
  const Tensor full = engine.ComputeFinalEmbeddings();

  std::vector<NodeId> subset;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) subset.push_back(v);
  Tensor refreshed(g.num_nodes(), cfg.dim);
  engine.RefreshInto(subset, &refreshed);
  for (const NodeId v : subset) {
    EXPECT_EQ(0, std::memcmp(full.Row(v), refreshed.Row(v),
                             static_cast<size_t>(cfg.dim) * sizeof(float)))
        << "node " << v;
  }
}

// ------------------------------------------------- (b) overlay equivalence

std::vector<TemporalEdge> RandomEdges(size_t count, NodeId num_nodes,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<TemporalEdge> edges;
  edges.reserve(count);
  while (edges.size() < count) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (u == v) continue;
    // Coarse timestamps force plenty of ties, exercising the stable-merge
    // argument; interleave a few out-of-order arrivals.
    const Timestamp t = static_cast<Timestamp>(rng.UniformInt(uint64_t{40}));
    edges.push_back({u, v, t, 1.0f + static_cast<float>(rng.Uniform())});
  }
  return edges;
}

TEST(DynamicGraphTest, CompactMatchesRebuildFromScratch) {
  constexpr NodeId kNodes = 60;
  const std::vector<TemporalEdge> all = RandomEdges(400, kNodes, 11);
  const size_t base_count = 150;

  std::vector<TemporalEdge> base_edges(all.begin(), all.begin() + base_count);
  auto base = TemporalGraph::FromEdges(base_edges, kNodes, /*directed=*/false);
  ASSERT_TRUE(base.ok());

  DynamicTemporalGraph overlay(&base.value());
  for (size_t i = base_count; i < all.size(); ++i) {
    ASSERT_TRUE(overlay.Ingest(all[i]).ok());
    // Compact at irregular points to exercise multi-generation merges.
    if (i % 97 == 0) {
      ASSERT_TRUE(overlay.Compact().ok());
    }
  }
  ASSERT_TRUE(overlay.Compact().ok());
  EXPECT_EQ(overlay.pending_edges(), 0u);

  auto rebuilt = TemporalGraph::FromEdges(all, kNodes, /*directed=*/false);
  ASSERT_TRUE(rebuilt.ok());
  const TemporalGraph& a = overlay.current();
  const TemporalGraph& b = rebuilt.value();

  // Identical sorted edge lists => identical CSR => identical observations.
  ASSERT_EQ(a.edges(), b.edges());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());

  // Belt and braces: bitwise-equal walks through both graphs.
  TemporalWalkConfig wcfg;
  wcfg.num_walks = 3;
  wcfg.walk_length = 5;
  TemporalWalkSampler sa(&a, wcfg);
  TemporalWalkSampler sb(&b, wcfg);
  std::vector<TemporalWalkSampler::Anchor> anchors;
  for (NodeId v = 0; v < kNodes; ++v) {
    anchors.push_back({v, a.max_time()});
  }
  EXPECT_EQ(sa.SampleWalksBatch(anchors, 123, nullptr),
            sb.SampleWalksBatch(anchors, 123, nullptr));

  // And matching historical prefixes at a few cutoffs.
  for (const Timestamp cutoff : {0.0, 7.0, 23.0, 40.0}) {
    for (NodeId v = 0; v < kNodes; v += 7) {
      const auto na = a.NeighborsBefore(v, cutoff);
      const auto nb = b.NeighborsBefore(v, cutoff);
      ASSERT_EQ(na.size(), nb.size());
      for (size_t i = 0; i < na.size(); ++i) {
        EXPECT_EQ(na[i].neighbor, nb[i].neighbor);
        EXPECT_EQ(na[i].time, nb[i].time);
        EXPECT_EQ(na[i].edge_id, nb[i].edge_id);
      }
    }
  }
}

TEST(DynamicGraphTest, GrowsNodeSpaceAndValidatesEdges) {
  auto base = TemporalGraph::FromEdges({{0, 1, 1.0}, {1, 2, 2.0}}, 3, false);
  ASSERT_TRUE(base.ok());
  DynamicTemporalGraph overlay(&base.value());

  EXPECT_FALSE(overlay.Ingest({5, 5, 3.0}).ok());          // self-loop
  EXPECT_FALSE(overlay.Ingest({0, 1, 3.0, -1.0f}).ok());   // negative weight
  EXPECT_EQ(overlay.pending_edges(), 0u);

  ASSERT_TRUE(overlay.Ingest({2, 7, 3.0}).ok());  // new node id 7
  EXPECT_EQ(overlay.num_nodes(), 8u);
  ASSERT_TRUE(overlay.Compact().ok());
  EXPECT_EQ(overlay.current().num_nodes(), 8u);
  EXPECT_TRUE(overlay.current().HasEdge(2, 7));
}

// Regressions for malformed live edges. Node id 0xFFFFFFFF (what
// serve_demo's `INGEST -1 5 3.0` parses to) used to wrap the overlay's
// max(src, dst) + 1 node count to 0, skip the resize, and read the
// reservoir caches out of bounds; NaN weights passed the `weight < 0`
// check and NaN times later broke Compact's stable_sort comparator.
TEST(DynamicGraphTest, RejectsReservedIdAndNonFiniteEdges) {
  auto base = TemporalGraph::FromEdges({{0, 1, 1.0}, {1, 2, 2.0}}, 3, false);
  ASSERT_TRUE(base.ok());
  DynamicTemporalGraph overlay(&base.value());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const float nanf = std::numeric_limits<float>::quiet_NaN();
  const float inff = std::numeric_limits<float>::infinity();

  const std::vector<TemporalEdge> bad = {
      {kInvalidNode, 5, 3.0},   // serve_demo's `INGEST -1 5 3.0`
      {5, kInvalidNode, 3.0},
      {0, 1, nan},
      {0, 1, inf},
      {0, 1, -inf},
      {0, 1, 3.0, nanf},
      {0, 1, 3.0, inff},
  };
  for (const TemporalEdge& e : bad) {
    const Status st = overlay.Ingest(e);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << e.src << " " << e.dst << " " << e.time << " " << e.weight;
  }
  EXPECT_EQ(overlay.pending_edges(), 0u);
  EXPECT_EQ(overlay.num_nodes(), 3u);

  // The overlay is still fully usable afterwards.
  ASSERT_TRUE(overlay.Ingest({2, 4, 3.0}).ok());
  ASSERT_TRUE(overlay.Compact().ok());
  EXPECT_EQ(overlay.current().num_nodes(), 5u);
}

TEST(DynamicGraphTest, CandidateCachesAreBoundedAndSeeded) {
  // A hub with many base neighbors: its reservoir must stay at capacity and
  // hold only real neighbors.
  std::vector<TemporalEdge> edges;
  for (NodeId v = 1; v <= 40; ++v) {
    edges.push_back({0, v, static_cast<Timestamp>(v)});
  }
  auto base = TemporalGraph::FromEdges(edges, 41, false);
  ASSERT_TRUE(base.ok());

  DynamicGraphOptions opt;
  opt.cache_capacity = 8;
  DynamicTemporalGraph overlay(&base.value(), opt);
  ASSERT_TRUE(overlay.Ingest({0, 40, 50.0}).ok());

  const auto cached = overlay.CachedNeighbors(0);
  EXPECT_EQ(cached.size(), opt.cache_capacity);
  for (const NodeId c : cached) {
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, 40u);
  }

  std::vector<NodeId> candidates;
  overlay.AffectedCandidates({0, 40, 50.0}, &candidates);
  EXPECT_LE(candidates.size(), 2 + 2 * opt.cache_capacity);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 40u),
            candidates.end());
}

// ------------------------------------------------------ embedding growth

TEST(EmbeddingTest, EnsureRowsPreservesExistingBytes) {
  Rng rng(5);
  Embedding emb(10, 4, &rng);
  const Tensor before = emb.table();

  Rng grow_rng(99);
  emb.EnsureRows(6, &grow_rng);  // no-op
  EXPECT_EQ(emb.num_rows(), 10);
  emb.EnsureRows(14, &grow_rng);
  ASSERT_EQ(emb.num_rows(), 14);
  EXPECT_EQ(0, std::memcmp(before.data(), emb.table().data(),
                           static_cast<size_t>(before.numel()) * sizeof(float)));
  const float bound = 0.5f / 4.0f;
  for (int64_t r = 10; r < 14; ++r) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_LE(std::abs(emb.table().Row(r)[j]), bound);
    }
  }
}

// ------------------------------------------------------- batched exact kNN

TEST(KnnTest, BatchedMatchesPerQuery) {
  Rng rng(21);
  Tensor m(64, 6);
  for (int64_t i = 0; i < m.numel(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  std::vector<NodeId> queries = {0, 5, 5, 63, 17};  // duplicates allowed
  for (const Similarity sim :
       {Similarity::kDotProduct, Similarity::kCosine,
        Similarity::kNegativeEuclidean}) {
    auto batch = TopKNeighborsBatch(m, queries, 10, sim);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto single = TopKNeighbors(m, queries[qi], 10, sim);
      ASSERT_TRUE(single.ok());
      const auto& got = batch.value()[qi];
      const auto& want = single.value();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].node, want[i].node);
        EXPECT_EQ(got[i].score, want[i].score);
      }
    }
  }
  auto bad = TopKNeighborsBatch(m, std::vector<NodeId>{64}, 5,
                                Similarity::kCosine);
  EXPECT_FALSE(bad.ok());
}

// ----------------------------------------------------------- (c) ANN recall

// Unit-norm clustered vectors, the shape of serving embeddings: points draw
// a cluster center on the sphere plus Gaussian noise, renormalized.
Tensor ClusteredUnitVectors(int64_t n, int64_t d, int64_t clusters,
                            uint64_t seed) {
  Rng rng(seed);
  Tensor centers(clusters, d);
  for (int64_t i = 0; i < centers.numel(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Normal());
  }
  Tensor out(n, d);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(clusters)));
    float* row = out.Row(i);
    double norm = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      row[j] = centers.Row(c)[j] + 0.25f * static_cast<float>(rng.Normal());
      norm += static_cast<double>(row[j]) * row[j];
    }
    const float inv = 1.0f / static_cast<float>(std::sqrt(norm));
    for (int64_t j = 0; j < d; ++j) row[j] *= inv;
  }
  return out;
}

TEST(AnnTest, RecallAtLeast95OnClusteredEmbeddings) {
  // Digg-sized: the benchmark-default Digg substitute has ~6k nodes.
  const Tensor emb = ClusteredUnitVectors(6000, 32, 64, 31);
  auto built = IvfFlatIndex::Build(emb);
  ASSERT_TRUE(built.ok());
  const IvfFlatIndex& index = built.value();

  Rng rng(17);
  std::vector<NodeId> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(static_cast<NodeId>(rng.UniformInt(uint64_t{6000})));
  }
  auto oracle = TopKNeighborsBatch(emb, queries, 10,
                                   Similarity::kNegativeEuclidean);
  ASSERT_TRUE(oracle.ok());

  size_t hits = 0, total = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto approx = index.QueryNode(queries[qi], 10);
    ASSERT_TRUE(approx.ok());
    std::set<NodeId> exact_ids;
    for (const Neighbor& nb : oracle.value()[qi]) exact_ids.insert(nb.node);
    total += exact_ids.size();
    for (const Neighbor& nb : approx.value()) {
      hits += exact_ids.count(nb.node);
    }
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_GE(recall, 0.95) << "recall@10 = " << recall;
}

TEST(AnnTest, UpdateMovesVectorsBetweenCells) {
  const Tensor emb = ClusteredUnitVectors(512, 16, 8, 3);
  auto built = IvfFlatIndex::Build(emb);
  ASSERT_TRUE(built.ok());
  IvfFlatIndex index = std::move(built).value();
  ASSERT_EQ(index.size(), 512u);

  // Teleport node 3 onto node 400's exact vector: it must become (one of)
  // node 400's nearest neighbors under the same metric.
  index.Update(3, emb.Row(400), index.AssignCell(emb.Row(400)));
  ASSERT_NE(index.VectorOf(3), nullptr);
  EXPECT_EQ(0, std::memcmp(index.VectorOf(3), emb.Row(400),
                           16 * sizeof(float)));
  auto nbrs = index.QueryNode(400, 5);
  ASSERT_TRUE(nbrs.ok());
  ASSERT_FALSE(nbrs.value().empty());
  EXPECT_EQ(nbrs.value()[0].node, 3u);
  EXPECT_EQ(nbrs.value()[0].score, 0.0);  // -||a-b||^2 of identical vectors
  EXPECT_EQ(index.size(), 512u);

  // Upsert of a brand-new id grows the index.
  index.Update(600, emb.Row(0), index.AssignCell(emb.Row(0)));
  EXPECT_EQ(index.size(), 513u);
  auto nn0 = index.QueryNode(600, 1);
  ASSERT_TRUE(nn0.ok());
  EXPECT_EQ(nn0.value()[0].node, 0u);

  // A random upsert sequence that moves rows between cells, rewrites rows
  // in place and adds sparse new ids: afterwards every id holds the vector
  // it was last given, and a one-cell probe of that vector finds the id at
  // score 0, so each row sits in its assigned cell.
  std::map<NodeId, std::vector<float>> last;
  Rng rng(77);
  for (int step = 0; step < 400; ++step) {
    // Mostly existing ids; every tenth upsert names a new id past the end.
    const NodeId id =
        step % 10 == 9 ? static_cast<NodeId>(700 + rng.UniformInt(uint64_t{64}))
                       : static_cast<NodeId>(rng.UniformInt(uint64_t{512}));
    // Half the time another row's vector (usually another cell), otherwise
    // a slight perturbation of the id's own row (usually the same cell).
    const NodeId src = static_cast<NodeId>(rng.UniformInt(uint64_t{512}));
    const float* row = emb.Row(step % 2 == 0 ? src : id % 512);
    std::vector<float> vec(row, row + 16);
    if (step % 2 == 1) {
      for (float& x : vec) x += 1e-3f * static_cast<float>(rng.Uniform());
    }
    index.Update(id, vec.data(), index.AssignCell(vec.data()));
    last[id] = std::move(vec);
  }
  size_t fresh = 0;
  for (const auto& [id, vec] : last) fresh += id >= 700;
  EXPECT_EQ(index.size(), 513u + fresh);
  for (const auto& [id, vec] : last) {
    ASSERT_NE(index.VectorOf(id), nullptr) << id;
    EXPECT_EQ(0, std::memcmp(index.VectorOf(id), vec.data(),
                             16 * sizeof(float)))
        << id;
    const auto hits = index.Query(vec.data(), 16, -1, /*nprobe=*/1);
    EXPECT_TRUE(std::any_of(hits.begin(), hits.end(), [&](const Neighbor& h) {
      return h.node == id && h.score == 0.0;
    })) << id;
  }
}

// ------------------------------------------------------- serving end-to-end

struct ServerFixture {
  TemporalGraph graph;
  EhnaConfig cfg;
  std::string dir;
  std::string ckpt;

  explicit ServerFixture(const std::string& tag, int num_threads = 2)
      : graph(TinyGraph()), cfg(TinyConfig()) {
    cfg.num_threads = num_threads;
    dir = FreshDir("ehna_serve_" + tag);
    ckpt = dir + "/model.ehnc";
    EhnaModel trainer(&graph, cfg);
    trainer.Train();
    EHNA_CHECK(trainer.SaveCheckpoint(ckpt).ok());
  }
  ~ServerFixture() { fs::remove_all(dir); }

  ServeOptions Options() const {
    ServeOptions opt;
    opt.config = cfg;
    opt.refresh_batch = 0;  // manual refresh unless a test overrides.
    return opt;
  }
};

TEST(EmbeddingServerTest, RefreshedRowsMatchOfflineRecompute) {
  ServerFixture fx("offline_eq");
  auto loaded =
      EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();
  const Tensor before = server.ServingEmbeddings();

  // Ingest a burst of fresh interactions among existing nodes, after the
  // trained time range.
  const NodeId n = fx.graph.num_nodes();
  Rng rng(41);
  std::vector<TemporalEdge> stream;
  const Timestamp t0 = fx.graph.max_time();
  std::vector<TemporalEdge> all_edges = fx.graph.edges();
  while (stream.size() < 40) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    const TemporalEdge e{u, v, t0 + 1.0 + static_cast<double>(stream.size())};
    stream.push_back(e);
    all_edges.push_back(e);
  }
  for (const TemporalEdge& e : stream) {
    ASSERT_TRUE(server.Ingest(e).ok());
  }
  EXPECT_EQ(server.stats().pending_edges, stream.size());
  ASSERT_TRUE(server.Refresh().ok());
  EXPECT_EQ(server.stats().pending_edges, 0u);
  const Tensor after = server.ServingEmbeddings();

  // Offline oracle: a fresh model restored from the same checkpoint, its
  // engine re-pointed at the full graph built from scratch; per-node-stream
  // refresh of every node. Affected rows must match the server bitwise;
  // rows the server did not refresh must be bitwise-unchanged.
  auto full = TemporalGraph::FromEdges(all_edges, n, fx.graph.directed());
  ASSERT_TRUE(full.ok());
  EhnaModel offline(&fx.graph, fx.cfg);
  ASSERT_TRUE(offline.RestoreCheckpoint(fx.ckpt).ok());
  InferenceEngine engine(&fx.graph, offline.embedding(), offline.aggregator(),
                         fx.cfg);
  engine.RebindGraph(&full.value());
  std::vector<NodeId> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});
  Tensor oracle(n, fx.cfg.dim);
  engine.RefreshInto(all_nodes, &oracle);

  std::set<NodeId> touched;
  for (const TemporalEdge& e : stream) {
    touched.insert(e.src);
    touched.insert(e.dst);
  }
  const size_t row_bytes = static_cast<size_t>(fx.cfg.dim) * sizeof(float);
  size_t stale = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (touched.count(v)) {
      // Endpoints are always in the refresh set and were recomputed against
      // the same compacted graph the oracle sees: bitwise equality.
      EXPECT_EQ(0, std::memcmp(after.Row(v), oracle.Row(v), row_bytes))
          << "endpoint " << v;
    } else if (std::memcmp(after.Row(v), oracle.Row(v), row_bytes) != 0) {
      // Staleness contract: a non-candidate node may lag the full oracle,
      // but then it must still serve its pre-ingest embedding.
      EXPECT_EQ(0, std::memcmp(after.Row(v), before.Row(v), row_bytes))
          << "node " << v << " neither fresh nor pre-ingest";
      ++stale;
    }
  }
  // The candidate expansion must have refreshed more than just endpoints.
  EXPECT_GT(server.stats().refreshed_nodes,
            static_cast<uint64_t>(touched.size()));
  EXPECT_LT(stale, static_cast<size_t>(n));
}

TEST(EmbeddingServerTest, NewNodesBecomeServableAfterRefresh) {
  ServerFixture fx("new_nodes");
  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();
  const NodeId n = fx.graph.num_nodes();
  const NodeId fresh = n + 2;

  EXPECT_FALSE(server.Query(fresh, 5).ok());  // not yet servable
  const Timestamp t0 = fx.graph.max_time();
  ASSERT_TRUE(server.Ingest({0, fresh, t0 + 1.0}).ok());
  ASSERT_TRUE(server.Ingest({1, fresh, t0 + 2.0}).ok());
  ASSERT_TRUE(server.Refresh().ok());

  EXPECT_EQ(server.num_nodes(), static_cast<size_t>(fresh) + 1);
  auto nbrs = server.Query(fresh, 5);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_EQ(nbrs.value().size(), 5u);
  auto score = server.LinkScore(0, fresh);
  ASSERT_TRUE(score.ok());
  EXPECT_TRUE(std::isfinite(score.value()));

  // ANN result for the fresh node agrees reasonably with the exact oracle.
  auto exact = server.QueryExact(fresh, 5);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(nbrs.value()[0].node, exact.value()[0].node);
}

TEST(EmbeddingServerTest, AutoRefreshTriggersOnBatchBoundary) {
  ServerFixture fx("auto_refresh");
  ServeOptions opt = fx.Options();
  opt.refresh_batch = 8;
  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, opt);
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();

  const Timestamp t0 = fx.graph.max_time();
  for (int i = 0; i < 20; ++i) {
    const NodeId u = static_cast<NodeId>(i % 5);
    const NodeId v = static_cast<NodeId>(5 + (i % 7));
    ASSERT_TRUE(server.Ingest({u, v, t0 + 1.0 + i}).ok());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.ingested_edges, 20u);
  EXPECT_EQ(stats.refreshes, 2u);          // at edges 8 and 16
  EXPECT_EQ(stats.pending_edges, 4u);      // 20 - 2*8
  EXPECT_GT(stats.refreshed_nodes, 0u);
}

// Reduced-precision serving (DESIGN.md §14): with precision=int8 the
// server keeps an int8 mirror of the serving matrix and re-quantizes
// exactly the rows each Refresh rewrote. Quantization must be a pure
// read-side view: fp32 serving bytes, refresh behaviour, and the on-disk
// checkpoint are identical to an fp32-precision server over the same
// stream.
TEST(EmbeddingServerTest, Int8RefreshRequantizesExactlyAffectedRows) {
  ServerFixture fx("quant_refresh");
  const std::string ckpt_before = ReadBytes(fx.ckpt);
  ASSERT_FALSE(ckpt_before.empty());

  ServeOptions opt_q = fx.Options();
  opt_q.precision = ServePrecision::kInt8;
  auto loaded_q = EmbeddingServer::Load(fx.ckpt, fx.graph, opt_q);
  ASSERT_TRUE(loaded_q.ok());
  EmbeddingServer& quant_server = *loaded_q.value();
  auto loaded_f = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
  ASSERT_TRUE(loaded_f.ok());
  EmbeddingServer& fp32_server = *loaded_f.value();

  const Tensor before = quant_server.ServingEmbeddings();
  const QuantizedMatrix mirror_before = quant_server.QuantizedServingSnapshot();
  ASSERT_EQ(mirror_before.rows(), before.rows());

  // Same stream into both servers; include a brand-new node so the mirror
  // has to grow alongside the serving matrix.
  const NodeId n = fx.graph.num_nodes();
  const Timestamp t0 = fx.graph.max_time();
  std::vector<TemporalEdge> stream;
  Rng rng(57);
  while (stream.size() < 24) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    stream.push_back({u, v, t0 + 1.0 + static_cast<double>(stream.size())});
  }
  stream.push_back({0, n + 1, t0 + 100.0});
  for (const TemporalEdge& e : stream) {
    ASSERT_TRUE(quant_server.Ingest(e).ok());
    ASSERT_TRUE(fp32_server.Ingest(e).ok());
  }
  ASSERT_TRUE(quant_server.Refresh().ok());
  ASSERT_TRUE(fp32_server.Refresh().ok());

  // Quantization never perturbs the fp32 serving state.
  const Tensor after = quant_server.ServingEmbeddings();
  EXPECT_TRUE(SameBytes(after, fp32_server.ServingEmbeddings()));

  // Offline-recompute check: RequantizeRow is a pure function of the fp32
  // row, so the incrementally-maintained mirror must equal quantizing the
  // whole post-refresh matrix from scratch — codes, scales, and norms.
  const QuantizedMatrix mirror = quant_server.QuantizedServingSnapshot();
  const QuantizedMatrix oracle =
      QuantizedMatrix::FromTensor(after, ServePrecision::kInt8);
  ASSERT_EQ(mirror.rows(), oracle.rows());
  ASSERT_EQ(mirror.dim(), oracle.dim());
  const int64_t d = mirror.dim();
  EXPECT_EQ(std::memcmp(mirror.DataI8(), oracle.DataI8(),
                        static_cast<size_t>(mirror.rows() * d)),
            0);
  for (int64_t r = 0; r < mirror.rows(); ++r) {
    const float ms = mirror.scale(r);
    const float os = oracle.scale(r);
    EXPECT_EQ(std::memcmp(&ms, &os, sizeof(float)), 0) << "row " << r;
    EXPECT_EQ(mirror.sqnorm_i32(r), oracle.sqnorm_i32(r)) << "row " << r;
  }

  // Rows the refresh did not rewrite kept their pre-ingest quantized bytes
  // (i.e. refresh re-quantized only affected rows, not the world).
  const size_t row_bytes = static_cast<size_t>(d) * sizeof(float);
  size_t untouched = 0;
  for (int64_t r = 0; r < before.rows(); ++r) {
    if (std::memcmp(after.Row(r), before.Row(r), row_bytes) != 0) continue;
    ++untouched;
    EXPECT_EQ(std::memcmp(mirror.RowI8(r), mirror_before.RowI8(r),
                          static_cast<size_t>(d)),
              0)
        << "row " << r;
    EXPECT_EQ(mirror.sqnorm_i32(r), mirror_before.sqnorm_i32(r));
  }
  EXPECT_GT(untouched, 0u);

  // Quantized queries serve exact fp32 scores after the re-rank, and the
  // full-precision oracle stays reachable for comparison.
  auto q_res = quant_server.QueryExact(3, 5);
  auto f_res = quant_server.QueryExactFp32(3, 5);
  ASSERT_TRUE(q_res.ok());
  ASSERT_TRUE(f_res.ok());
  ASSERT_EQ(q_res.value().size(), 5u);
  EXPECT_EQ(q_res.value()[0].node, f_res.value()[0].node);

  // Serving in reduced precision leaves the checkpoint file untouched.
  EXPECT_EQ(ckpt_before, ReadBytes(fx.ckpt));
}

// The serving entry point of the same repro: a malformed edge comes back
// as InvalidArgument and leaves the server untouched and serving.
TEST(EmbeddingServerTest, IngestRejectsMalformedEdges) {
  ServerFixture fx("malformed");
  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();
  const Tensor before = server.ServingEmbeddings();
  const Timestamp t0 = fx.graph.max_time();

  EXPECT_EQ(server.Ingest({kInvalidNode, 5, t0 + 1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      server.Ingest({0, 1, std::numeric_limits<double>::quiet_NaN()}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Ingest({0, 1, t0 + 1.0,
                           std::numeric_limits<float>::quiet_NaN()})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().ingested_edges, 0u);
  EXPECT_EQ(server.stats().pending_edges, 0u);
  ASSERT_TRUE(server.Refresh().ok());
  EXPECT_TRUE(SameBytes(before, server.ServingEmbeddings()));
  EXPECT_TRUE(server.Query(3, 5).ok());
}

// One edge naming node 3·10^8 used to be accepted, growing the overlay
// caches and, on refresh, the embedding table and serving matrix to 3·10^8
// rows. ServeOptions::max_nodes refuses it with ResourceExhausted and
// leaves the server untouched; ids below the limit still grow the table.
TEST(EmbeddingServerTest, IngestRefusesNodeIdsBeyondMaxNodes) {
  ServerFixture fx("max_nodes");
  const NodeId n = fx.graph.num_nodes();
  const Timestamp t0 = fx.graph.max_time();
  {
    auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
    ASSERT_TRUE(loaded.ok());
    EmbeddingServer& server = *loaded.value();
    const Tensor before = server.ServingEmbeddings();
    // ASSERT: were the edge accepted, the Refresh below would try to
    // allocate 3·10^8 rows.
    const Status st = server.Ingest({1, 300'000'000, t0 + 1.0});
    ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
    // A malformed edge is still InvalidArgument, not a limit failure.
    EXPECT_EQ(server.Ingest({kInvalidNode, 5, t0 + 1.0}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(server.stats().ingested_edges, 0u);
    EXPECT_EQ(server.stats().pending_edges, 0u);
    ASSERT_TRUE(server.Refresh().ok());
    EXPECT_EQ(server.num_nodes(), static_cast<size_t>(n));
    EXPECT_TRUE(SameBytes(before, server.ServingEmbeddings()));
  }
  ServeOptions opt = fx.Options();
  opt.max_nodes = n + 2;
  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, opt);
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();
  EXPECT_TRUE(server.Ingest({1, n + 1, t0 + 1.0}).ok());
  EXPECT_EQ(server.Ingest({n + 2, 1, t0 + 2.0}).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(server.Refresh().ok());
  EXPECT_EQ(server.num_nodes(), static_cast<size_t>(n + 2));
  EXPECT_TRUE(server.Query(n + 1, 3).ok());
}

void ExpectSameStats(const EmbeddingServer::Stats& a,
                     const EmbeddingServer::Stats& b) {
  EXPECT_EQ(a.ingested_edges, b.ingested_edges);
  EXPECT_EQ(a.pending_edges, b.pending_edges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.refreshed_nodes, b.refreshed_nodes);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_edges, b.num_edges);
}

// One edge naming node 6·10^7 (below the default max_nodes = 2^26) used to
// make the next refresh allocate a table and serving matrix of 6·10^7 rows.
// Ingest refuses an edge that would grow the node space more than
// kMaxNewNodesPerRefresh past the servable rows, counting growth already
// pending; a refused edge changes nothing, and the boundary itself is
// accepted.
TEST(EmbeddingServerTest, IngestRefusesGrowthBeyondPerRefreshLimit) {
  ServerFixture fx("growth_limit");
  const NodeId n = fx.graph.num_nodes();
  const Timestamp t0 = fx.graph.max_time();
  {
    auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
    ASSERT_TRUE(loaded.ok());
    EmbeddingServer& server = *loaded.value();
    const Tensor before = server.ServingEmbeddings();
    const auto stats = server.stats();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const long peak_kib = ru.ru_maxrss;
    // ASSERT: were the edge accepted, the Refresh below would allocate
    // 6·10^7 rows (and the overlay 6·10^7 caches on the spot).
    const Status st = server.Ingest({1, 60'000'000, t0 + 1.0});
    ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
    ExpectSameStats(stats, server.stats());
    ASSERT_TRUE(server.Refresh().ok());
    EXPECT_EQ(server.num_nodes(), static_cast<size_t>(n));
    EXPECT_TRUE(SameBytes(before, server.ServingEmbeddings()));
    getrusage(RUSAGE_SELF, &ru);
    EXPECT_LT(ru.ru_maxrss - peak_kib, 64L * 1024) << "KiB of new peak RSS";
  }

  const NodeId limit = EmbeddingServer::kMaxNewNodesPerRefresh;
  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
  auto twin_loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(twin_loaded.ok());
  EmbeddingServer& server = *loaded.value();
  EmbeddingServer& twin = *twin_loaded.value();  // sees accepted edges only.
  auto accept = [&](const TemporalEdge& e) {
    ASSERT_TRUE(server.Ingest(e).ok());
    ASSERT_TRUE(twin.Ingest(e).ok());
  };
  auto refuse = [&](const TemporalEdge& e) {
    const auto stats = server.stats();
    const Status st = server.Ingest(e);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
    ExpectSameStats(stats, server.stats());
  };

  // Past the n servable rows, ids up to n + limit - 1 (growth = limit) are
  // accepted and n + limit is refused; ids inside the pending growth still
  // are accepted.
  accept({0, n + limit - 1, t0 + 1.0});
  refuse({1, n + limit, t0 + 2.0});
  accept({2, n + 1, t0 + 3.0});
  refuse({n + limit, n + 2, t0 + 4.0});
  ASSERT_TRUE(server.Refresh().ok());
  ASSERT_TRUE(twin.Refresh().ok());
  EXPECT_EQ(server.num_nodes(), static_cast<size_t>(n + limit));
  EXPECT_TRUE(SameBytes(server.ServingEmbeddings(), twin.ServingEmbeddings()));
  ExpectSameStats(server.stats(), twin.stats());

  // The limit counts from the new servable rows.
  refuse({3, n + 2 * limit, t0 + 5.0});
  accept({3, n + 2 * limit - 1, t0 + 6.0});
  ASSERT_TRUE(server.Refresh().ok());
  ASSERT_TRUE(twin.Refresh().ok());
  EXPECT_EQ(server.num_nodes(), static_cast<size_t>(n + 2 * limit));
  EXPECT_TRUE(SameBytes(server.ServingEmbeddings(), twin.ServingEmbeddings()));
  ExpectSameStats(server.stats(), twin.stats());
  EXPECT_TRUE(server.Query(n + 2 * limit - 1, 3).ok());
}

// Metrics never change bytes (DESIGN.md §8): with the registry on or off,
// the finalize matrix, the post-finalize checkpoint, and the rows a server
// serves after Load + ingest + Refresh are byte-identical. With metrics on,
// the refresh and inference sub-phases must actually have been recorded.
TEST(EmbeddingServerTest, MetricsOnOffServeIdenticalBytes) {
  ServerFixture fx("metrics_on_off");
  const NodeId n = fx.graph.num_nodes();
  const Timestamp t0 = fx.graph.max_time();
  std::vector<TemporalEdge> stream;
  Rng rng(71);
  while (stream.size() < 24) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    stream.push_back({u, v, t0 + 1.0 + static_cast<double>(stream.size())});
  }
  stream.push_back({1, n + 1, t0 + 50.0});  // grows the table too.

  struct Run {
    Tensor finalized;
    std::string checkpoint;
    Tensor served;
    double pending_edges = 0.0;  // staleness gauges just before Refresh...
    double pending_age_ms = 0.0;
    double pending_after = -1.0;  // ...and serve.pending_edges after it.
  };
  auto& metrics = MetricsRegistry::Global();
  Gauge* pending_edges = metrics.GetGauge("serve.pending_edges");
  Gauge* pending_age = metrics.GetGauge("serve.pending_age_ms");
  auto run = [&](bool metrics_enabled) {
    MetricsRegistry::SetEnabled(metrics_enabled);
    Run r;
    EhnaModel model(&fx.graph, fx.cfg);
    EHNA_CHECK(model.RestoreCheckpoint(fx.ckpt).ok());
    r.finalized = model.FinalizeEmbeddings();
    const std::string path = fx.dir + "/final.ehnc";
    EHNA_CHECK(model.SaveCheckpoint(path).ok());
    r.checkpoint = ReadBytes(path);
    auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, fx.Options());
    EHNA_CHECK(loaded.ok());
    for (size_t i = 0; i < stream.size(); ++i) {
      // Let the oldest pending edge age before the last Ingest sets the
      // gauges.
      if (i + 1 == stream.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      EHNA_CHECK(loaded.value()->Ingest(stream[i]).ok());
    }
    r.pending_edges = pending_edges->Value();
    r.pending_age_ms = pending_age->Value();
    EHNA_CHECK(loaded.value()->Refresh().ok());
    r.pending_after = pending_edges->Value();
    r.served = loaded.value()->ServingEmbeddings();
    MetricsRegistry::SetEnabled(true);
    return r;
  };

  MetricsRegistry::Global().Reset();
  const Run on = run(/*metrics_enabled=*/true);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const Run off = run(/*metrics_enabled=*/false);

  EXPECT_TRUE(SameBytes(on.finalized, off.finalized));
  ASSERT_FALSE(on.checkpoint.empty());
  EXPECT_EQ(on.checkpoint, off.checkpoint);
  EXPECT_TRUE(SameBytes(on.served, off.served));

  // Staleness: the whole stream was pending (the oldest edge at least 2 ms
  // old) before the Refresh published it, and nothing after.
  EXPECT_EQ(on.pending_edges, static_cast<double>(stream.size()));
  EXPECT_GE(on.pending_age_ms, 2.0);
  EXPECT_EQ(on.pending_after, 0.0);

  for (const char* phase :
       {"serve.phase.refresh", "serve.phase.refresh_compact",
        "serve.phase.refresh_grow", "serve.phase.refresh_aggregate",
        "serve.phase.refresh_assign", "serve.phase.refresh_publish",
        "serve.phase.refresh_requantize", "serve.phase.refresh_index_upsert",
        "infer.phase.plan", "infer.phase.packed_forward"}) {
    const HistogramData* h = snap.Histogram(phase);
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_GT(h->count(), 0u) << phase;
  }
}

// Readers never see a refresh half-published (DESIGN.md §13). A serial run
// records the served bytes after Load and after every refresh; readers
// beside an identical ingesting server must only ever see one of those
// states, in non-decreasing order. Under int8 each reader alternates the
// fp32 matrix and the quantized mirror on one sequence, so publishing the
// two in separate exclusive sections would show up as a step back.
std::string Fp32Bytes(const Tensor& t) {
  return std::string(reinterpret_cast<const char*>(t.data()),
                     static_cast<size_t>(t.numel()) * sizeof(float));
}

std::string Int8Bytes(const QuantizedMatrix& q) {
  std::string out(reinterpret_cast<const char*>(q.DataI8()),
                  static_cast<size_t>(q.rows() * q.dim()));
  for (int64_t r = 0; r < q.rows(); ++r) {
    const float scale = q.scale(r);
    const int32_t sqnorm = q.sqnorm_i32(r);
    out.append(reinterpret_cast<const char*>(&scale), sizeof(scale));
    out.append(reinterpret_cast<const char*>(&sqnorm), sizeof(sqnorm));
  }
  return out;
}

void CheckReadersSeeWholeRefreshes(ServePrecision precision) {
  const bool quantized = precision != ServePrecision::kFp32;
  ServerFixture fx(std::string("whole_refresh_") +
                   ServePrecisionName(precision));
  ServeOptions opt = fx.Options();
  opt.precision = precision;
  opt.refresh_batch = 4;
  const NodeId n = fx.graph.num_nodes();
  const Timestamp t0 = fx.graph.max_time();
  std::vector<TemporalEdge> stream;
  Rng rng(83);
  while (stream.size() < 128) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    // Every 16th edge brings a new node, so some publishes also swap in a
    // grown matrix.
    const NodeId v = stream.size() % 16 == 15
                         ? n + static_cast<NodeId>(stream.size() / 16)
                         : static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    stream.push_back({u, v, t0 + 1.0 + static_cast<double>(stream.size())});
  }

  // Serial run: state k is what the server serves after its k-th refresh.
  // A byte string maps to the range of states that serve it.
  std::map<std::string, std::pair<size_t, size_t>> fp32_states, quant_states;
  {
    auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, opt);
    ASSERT_TRUE(loaded.ok());
    EmbeddingServer& serial = *loaded.value();
    size_t state = 0;
    auto record = [&] {
      const auto add = [&](auto* states, std::string bytes) {
        auto [it, fresh] = states->try_emplace(std::move(bytes), state, state);
        if (!fresh) it->second.second = state;
      };
      add(&fp32_states, Fp32Bytes(serial.ServingEmbeddings()));
      if (quantized) {
        add(&quant_states, Int8Bytes(serial.QuantizedServingSnapshot()));
      }
    };
    record();
    for (const TemporalEdge& e : stream) {
      const uint64_t before = serial.stats().refreshes;
      ASSERT_TRUE(serial.Ingest(e).ok());
      if (serial.stats().refreshes > before) {
        ++state;
        record();
      }
    }
    ASSERT_EQ(state, stream.size() / opt.refresh_batch);
    ASSERT_GT(fp32_states.size(), state / 2);
  }

  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, opt);
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();
  constexpr int kReaders = 3;
  std::atomic<int> ready{0};
  std::atomic<bool> done{false};
  std::atomic<bool> unknown{false};
  std::atomic<bool> stepped_back{false};
  std::atomic<uint64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t floor = 0;  // lowest state the next snapshot may show.
      auto observe = [&](const auto& states, const std::string& bytes) {
        const auto it = states.find(bytes);
        if (it == states.end()) {
          unknown = true;
          return;
        }
        if (it->second.second < floor) stepped_back = true;
        floor = std::max(floor, it->second.first);
        snapshots.fetch_add(1, std::memory_order_relaxed);
      };
      bool last = false;
      for (uint64_t i = r;; ++i) {
        last = done.load();
        if (quantized && i % 2 == 1) {
          observe(quant_states, Int8Bytes(server.QuantizedServingSnapshot()));
        } else {
          observe(fp32_states, Fp32Bytes(server.ServingEmbeddings()));
        }
        if (i == static_cast<uint64_t>(r)) ready.fetch_add(1);
        if (last) break;
      }
    });
  }
  while (ready.load() < kReaders) std::this_thread::yield();
  for (const TemporalEdge& e : stream) ASSERT_TRUE(server.Ingest(e).ok());
  done = true;
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(unknown.load()) << "a reader saw bytes no refresh published";
  EXPECT_FALSE(stepped_back.load()) << "a reader saw an older state again";
  EXPECT_GE(snapshots.load(), static_cast<uint64_t>(2 * kReaders));
  EXPECT_EQ(fp32_states.at(Fp32Bytes(server.ServingEmbeddings())).second,
            stream.size() / opt.refresh_batch);
}

TEST(EmbeddingServerTest, ReadersSeeWholeRefreshes) {
  for (const ServePrecision precision :
       {ServePrecision::kFp32, ServePrecision::kInt8}) {
    SCOPED_TRACE(ServePrecisionName(precision));
    CheckReadersSeeWholeRefreshes(precision);
  }
}

// (d) Concurrent ingest + query: exercised under TSan via the
// `concurrency` ctest label. Writers stream edges (tripping auto-refreshes
// that mutate the serving matrix and ANN index) while readers hammer
// queries; the shared/exclusive lock must keep every interleaving sound.
TEST(EmbeddingServerTest, ConcurrentIngestAndQuery) {
  ServerFixture fx("concurrent", /*num_threads=*/2);
  ServeOptions opt = fx.Options();
  opt.refresh_batch = 16;
  auto loaded = EmbeddingServer::Load(fx.ckpt, fx.graph, opt);
  ASSERT_TRUE(loaded.ok());
  EmbeddingServer& server = *loaded.value();
  const NodeId n = fx.graph.num_nodes();
  const Timestamp t0 = fx.graph.max_time();

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> query_ok{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      for (int i = 0; i < 120; ++i) {
        const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
        const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
        if (u == v) continue;
        const TemporalEdge e{u, v, t0 + 1.0 + i + 200.0 * w};
        if (!server.Ingest(e).ok()) failed = true;
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(900 + r);
      for (int i = 0; i < 200; ++i) {
        const NodeId q = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
        auto res = server.Query(q, 5);
        if (res.ok()) {
          query_ok.fetch_add(1);
          for (const Neighbor& nb : res.value()) {
            if (nb.node >= server.num_nodes() + 8) failed = true;
          }
        }
        auto score = server.LinkScore(q, (q + 1) % n);
        if (score.ok() && !std::isfinite(score.value())) failed = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(query_ok.load(), 0u);
  ASSERT_TRUE(server.Refresh().ok());
  EXPECT_EQ(server.stats().pending_edges, 0u);
}

}  // namespace
}  // namespace ehna
