// Differential tests for the flat-CSR TemporalGraph (ISSUE 8 tentpole):
// randomized edge multisets — directed and undirected, duplicate
// timestamps, isolated nodes, skewed degrees, repeated node pairs — are fed
// both to the production CSR builder and to a deliberately naive test-only
// reference (per-node vectors, linear scans). Every observable —
// Neighbors, NeighborsBefore, Degree, HasEdge, edges() — must agree on
// every node and cutoff. On top of that, the memory-mapped construction
// path (FromEdgeLog) must be indistinguishable from the in-RAM path
// (FromEdges): identical edge lists and adjacency observations, bitwise
// identical temporal walks under a fixed seed at one and four threads, and
// byte-identical training checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/model.h"
#include "graph/edge_log.h"
#include "graph/generators/generators.h"
#include "graph/temporal_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/temporal_walk.h"

namespace ehna {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------- reference oracle

/// The simplest correct temporal adjacency: one vector per node, built by a
/// stable time sort and chronological append. No offsets, no binary
/// search — everything the CSR layout optimizes away, kept here as the
/// ground truth it must match.
struct ReferenceGraph {
  std::vector<TemporalEdge> edges;                // time-sorted.
  std::vector<std::vector<AdjEntry>> adjacency;   // per node, time order.
  bool directed = false;

  static ReferenceGraph Build(std::vector<TemporalEdge> input,
                              NodeId num_nodes, bool directed) {
    ReferenceGraph ref;
    ref.directed = directed;
    std::stable_sort(input.begin(), input.end(),
                     [](const TemporalEdge& a, const TemporalEdge& b) {
                       return a.time < b.time;
                     });
    ref.edges = std::move(input);
    ref.adjacency.resize(num_nodes);
    for (EdgeId id = 0; id < ref.edges.size(); ++id) {
      const TemporalEdge& e = ref.edges[id];
      ref.adjacency[e.src].push_back(AdjEntry{e.dst, e.time, e.weight, id});
      if (!directed) {
        ref.adjacency[e.dst].push_back(AdjEntry{e.src, e.time, e.weight, id});
      }
    }
    return ref;
  }

  std::vector<AdjEntry> NeighborsBefore(NodeId node, Timestamp cutoff) const {
    std::vector<AdjEntry> out;
    for (const AdjEntry& a : adjacency[node]) {
      if (a.time <= cutoff) out.push_back(a);
    }
    return out;
  }

  bool HasEdge(NodeId u, NodeId v) const {
    if (u >= adjacency.size()) return false;
    for (const AdjEntry& a : adjacency[u]) {
      if (a.neighbor == v) return true;
    }
    return false;
  }
};

bool SameEntry(const AdjEntry& a, const AdjEntry& b) {
  return a.neighbor == b.neighbor && a.time == b.time &&
         a.weight == b.weight && a.edge_id == b.edge_id;
}

/// One randomized edge-set configuration of the differential sweep.
struct EdgeSetConfig {
  std::string name;
  NodeId num_nodes = 0;
  size_t num_edges = 0;
  bool directed = false;
  /// Timestamps are drawn from `distinct_times` buckets; small values force
  /// heavy duplicate-timestamp runs (the stable-sort tie cases).
  size_t distinct_times = 0;
  /// Endpoints come from [0, active_nodes); nodes past that stay isolated.
  NodeId active_nodes = 0;
  /// Skew endpoint draws toward low ids (cubed-uniform), producing hub
  /// nodes with degrees hundreds of times the median.
  bool skewed = false;
};

std::vector<TemporalEdge> RandomEdges(const EdgeSetConfig& cfg, Rng* rng) {
  std::vector<TemporalEdge> edges;
  edges.reserve(cfg.num_edges);
  auto draw_node = [&]() -> NodeId {
    if (cfg.skewed) {
      const double u = rng->Uniform();
      return static_cast<NodeId>(u * u * u * cfg.active_nodes);
    }
    return static_cast<NodeId>(rng->UniformInt(cfg.active_nodes));
  };
  while (edges.size() < cfg.num_edges) {
    const NodeId src = draw_node();
    const NodeId dst = draw_node();
    if (src == dst) continue;  // graph rejects self-loops by contract.
    const Timestamp t =
        static_cast<Timestamp>(rng->UniformInt(cfg.distinct_times)) * 0.5;
    const float w = static_cast<float>(rng->UniformInt(1, 8)) * 0.25f;
    edges.push_back(TemporalEdge{src, dst, t, w});
  }
  return edges;
}

std::vector<EdgeSetConfig> SweepConfigs() {
  return {
      {"undirected_dense_ties", 24, 600, false, 5, 24, false},
      {"directed_dense_ties", 24, 600, true, 5, 24, false},
      {"undirected_isolated", 64, 300, false, 40, 16, false},
      {"directed_isolated", 64, 300, true, 40, 16, false},
      {"undirected_skewed", 200, 2000, false, 500, 200, true},
      {"directed_skewed", 200, 2000, true, 500, 200, true},
      {"tiny_multigraph", 4, 120, false, 3, 4, false},
  };
}

class CsrDifferentialTest : public ::testing::TestWithParam<EdgeSetConfig> {};

TEST_P(CsrDifferentialTest, AllObservationsMatchReference) {
  const EdgeSetConfig cfg = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 7919);
    const auto input = RandomEdges(cfg, &rng);
    const ReferenceGraph ref =
        ReferenceGraph::Build(input, cfg.num_nodes, cfg.directed);
    auto built = TemporalGraph::FromEdges(input, cfg.num_nodes, cfg.directed);
    ASSERT_TRUE(built.ok()) << built.status();
    const TemporalGraph& g = built.value();

    ASSERT_EQ(g.num_nodes(), cfg.num_nodes);
    ASSERT_EQ(g.num_edges(), ref.edges.size());
    EXPECT_EQ(g.directed(), cfg.directed);

    // edges(): same multiset in the same (stable time-sorted) order.
    for (size_t i = 0; i < ref.edges.size(); ++i) {
      ASSERT_EQ(g.edges()[i], ref.edges[i]) << "edge " << i;
    }

    std::vector<Timestamp> cutoffs = {-1.0, 0.0, 0.25, 1.0,
                                      g.max_time(), g.max_time() + 1.0};
    for (int i = 0; i < 8; ++i) {
      cutoffs.push_back(rng.Uniform(g.min_time() - 0.5, g.max_time() + 0.5));
    }

    for (NodeId v = 0; v < cfg.num_nodes; ++v) {
      const auto got = g.Neighbors(v);
      const auto& want = ref.adjacency[v];
      ASSERT_EQ(g.Degree(v), want.size()) << "node " << v;
      ASSERT_EQ(got.size(), want.size()) << "node " << v;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(SameEntry(got[i], want[i]))
            << "node " << v << " slot " << i;
      }
      for (const Timestamp cutoff : cutoffs) {
        const auto got_before = g.NeighborsBefore(v, cutoff);
        const auto want_before = ref.NeighborsBefore(v, cutoff);
        ASSERT_EQ(got_before.size(), want_before.size())
            << "node " << v << " cutoff " << cutoff;
        for (size_t i = 0; i < want_before.size(); ++i) {
          ASSERT_TRUE(SameEntry(got_before[i], want_before[i]))
              << "node " << v << " cutoff " << cutoff << " slot " << i;
        }
      }
      for (NodeId u = 0; u < cfg.num_nodes; ++u) {
        ASSERT_EQ(g.HasEdge(v, u), ref.HasEdge(v, u))
            << "pair (" << v << ", " << u << ")";
      }
    }
    // Out-of-range sources never have edges (walk code relies on this).
    EXPECT_FALSE(g.HasEdge(cfg.num_nodes, 0));
    EXPECT_FALSE(g.HasEdge(kInvalidNode, 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsrDifferentialTest,
                         ::testing::ValuesIn(SweepConfigs()),
                         [](const auto& info) { return info.param.name; });

// ------------------------------------------------ walk-sampler reference

/// Test-local temporal walk over the reference adjacency: Eq. 1-2 weights
/// with the beta factor's HasEdge lookup evaluated for every candidate of
/// every step — even at p = q = 1, where the sampler skips it — and the
/// sampler's selection rule (first inclusive prefix sum >= pick).
Walk ReferenceWalk(const ReferenceGraph& ref, const TemporalWalkConfig& c,
                   double inv_span, NodeId start, Timestamp ref_time,
                   Rng* rng) {
  Walk walk = {WalkStep{start, 0.0, 0.0f}};
  NodeId prev = kInvalidNode;
  NodeId current = start;
  Timestamp frontier = ref_time;
  for (int step = 0; step < c.walk_length; ++step) {
    const std::vector<AdjEntry> cands = ref.NeighborsBefore(current, frontier);
    if (cands.empty()) break;
    std::vector<double> prefix;
    double total = 0.0;
    for (const AdjEntry& a : cands) {
      double w = a.weight;
      if (c.use_time_decay) {
        const double dt = (ref_time - a.time) * inv_span;
        w *= std::exp(-c.decay_rate * (dt > 0.0 ? dt : 0.0));
      }
      if (prev != kInvalidNode) {
        const bool linked = ref.HasEdge(prev, a.neighbor);
        double beta;
        if (a.neighbor == prev) {
          beta = std::isinf(c.p) ? 0.0 : 1.0 / c.p;
        } else if (linked) {
          beta = 1.0;
        } else {
          beta = 1.0 / c.q;
        }
        w = beta * w;
      }
      total += w;
      prefix.push_back(total);
    }
    if (total <= 0.0) break;
    const double pick = rng->Uniform() * total;
    size_t chosen = cands.size() - 1;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (prefix[i] >= pick) {
        chosen = i;
        break;
      }
    }
    const AdjEntry& next = cands[chosen];
    walk.push_back(WalkStep{next.neighbor, next.time, next.weight});
    prev = current;
    current = next.neighbor;
    frontier = next.time;
  }
  return walk;
}

class WalkReferenceTest : public ::testing::TestWithParam<EdgeSetConfig> {};

TEST_P(WalkReferenceTest, WalksMatchAlwaysHasEdgeReference) {
  const EdgeSetConfig cfg = GetParam();
  Rng edge_rng(4242);
  const auto input = RandomEdges(cfg, &edge_rng);
  const ReferenceGraph ref =
      ReferenceGraph::Build(input, cfg.num_nodes, cfg.directed);
  auto built = TemporalGraph::FromEdges(input, cfg.num_nodes, cfg.directed);
  ASSERT_TRUE(built.ok()) << built.status();
  const TemporalGraph& g = built.value();
  const double inv_span = 1.0 / g.TimeSpan();

  // p = q = 1 takes the sampler's uniform-beta shortcut; the others keep
  // the HasEdge lookup and must be unchanged by it.
  const std::vector<std::pair<double, double>> pqs = {
      {1.0, 1.0}, {2.0, 0.5}, {0.5, 2.0}, {1.0, 4.0}};
  for (const auto& [p, q] : pqs) {
    TemporalWalkConfig wcfg;
    wcfg.walk_length = 8;
    wcfg.num_walks = 1;
    wcfg.p = p;
    wcfg.q = q;
    TemporalWalkSampler sampler(&g, wcfg);
    Rng anchor_rng(99);
    size_t steps = 0;
    for (int a = 0; a < 200; ++a) {
      const NodeId start =
          static_cast<NodeId>(anchor_rng.UniformInt(cfg.num_nodes));
      const Timestamp t = anchor_rng.Uniform(g.min_time(), g.max_time() + 1.0);
      Rng got_rng(1000 + a), want_rng(1000 + a);
      const Walk got = sampler.SampleWalk(start, t, &got_rng);
      const Walk want = ReferenceWalk(ref, wcfg, inv_span, start, t, &want_rng);
      ASSERT_EQ(got, want) << "p=" << p << " q=" << q << " anchor " << a;
      // Same number of draws, too.
      ASSERT_EQ(got_rng.Next(), want_rng.Next()) << "anchor " << a;
      steps += got.size() - 1;
    }
    EXPECT_GT(steps, 50u) << "walks barely moved; the check would be vacuous";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WalkReferenceTest,
                         ::testing::ValuesIn(SweepConfigs()),
                         [](const auto& info) { return info.param.name; });

// ----------------------------------------------- FromEdges vs FromEdgeLog

std::string TempLogPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// Builds the same random graph through both construction paths: sorted
/// in-RAM vector -> FromEdges, and sorted vector -> edge log -> mmap ->
/// FromEdgeLog.
struct GraphPair {
  TemporalGraph from_edges;
  TemporalGraph from_log;
};

GraphPair BuildBothPaths(const EdgeSetConfig& cfg, uint64_t seed,
                         const std::string& log_name) {
  Rng rng(seed);
  auto input = RandomEdges(cfg, &rng);
  // The log requires time-sorted appends; FromEdges stable-sorts anyway, so
  // pre-sorting feeds both paths the identical sequence.
  std::stable_sort(input.begin(), input.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });
  const std::string path = TempLogPath(log_name);
  EHNA_CHECK(WriteEdgeLog(path, input, cfg.num_nodes, cfg.directed).ok());

  auto a = TemporalGraph::FromEdges(std::move(input), cfg.num_nodes,
                                    cfg.directed);
  auto b = TemporalGraph::FromEdgeLog(path);
  EHNA_CHECK(a.ok());
  EHNA_CHECK(b.ok());
  fs::remove(path);
  return GraphPair{std::move(a).value(), std::move(b).value()};
}

TEST(CsrEdgeLogEquivalenceTest, BothConstructionPathsObserveIdentically) {
  const EdgeSetConfig cfg = {"paths", 100, 1500, false, 40, 80, true};
  auto [ram, mapped] = BuildBothPaths(cfg, 17, "ehna_csr_paths.ehnl");

  ASSERT_EQ(ram.num_nodes(), mapped.num_nodes());
  ASSERT_EQ(ram.num_edges(), mapped.num_edges());
  ASSERT_EQ(ram.directed(), mapped.directed());
  for (size_t i = 0; i < ram.num_edges(); ++i) {
    ASSERT_EQ(ram.edges()[i], mapped.edges()[i]) << "edge " << i;
  }
  for (NodeId v = 0; v < ram.num_nodes(); ++v) {
    const auto na = ram.Neighbors(v);
    const auto nb = mapped.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "node " << v;
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_TRUE(SameEntry(na[i], nb[i])) << "node " << v << " slot " << i;
    }
  }
  EXPECT_EQ(ram.min_time(), mapped.min_time());
  EXPECT_EQ(ram.max_time(), mapped.max_time());
}

std::vector<TemporalWalkSampler::Anchor> WalkAnchors(const TemporalGraph& g,
                                                     size_t count) {
  std::vector<TemporalWalkSampler::Anchor> anchors;
  Rng rng(123);
  for (size_t i = 0; i < count; ++i) {
    anchors.push_back({static_cast<NodeId>(rng.UniformInt(g.num_nodes())),
                       rng.Uniform(g.min_time(), g.max_time() + 1.0)});
  }
  return anchors;
}

TEST(CsrEdgeLogEquivalenceTest, WalksBitwiseIdenticalAcrossPathsAndThreads) {
  const EdgeSetConfig cfg = {"walks", 120, 2000, false, 60, 120, true};
  auto [ram, mapped] = BuildBothPaths(cfg, 29, "ehna_csr_walks.ehnl");

  TemporalWalkConfig wcfg;
  wcfg.walk_length = 8;
  wcfg.num_walks = 4;
  wcfg.p = 2.0;
  wcfg.q = 0.5;
  TemporalWalkSampler ram_sampler(&ram, wcfg);
  TemporalWalkSampler mapped_sampler(&mapped, wcfg);
  const auto anchors = WalkAnchors(ram, 64);

  const auto serial = ram_sampler.SampleWalksBatch(anchors, 77, nullptr);
  ASSERT_EQ(serial.size(), anchors.size());
  size_t steps = 0;
  for (const auto& per_anchor : serial) {
    for (const auto& walk : per_anchor) steps += walk.size();
  }
  ASSERT_GT(steps, anchors.size()) << "walks never left their start nodes; "
                                      "the determinism check would be vacuous";

  // Same seed, mmap-built graph, four threads: Walk has operator==, so
  // equality here is step-for-step bitwise agreement.
  ThreadPool pool(4);
  const auto threaded = mapped_sampler.SampleWalksBatch(anchors, 77, &pool);
  EXPECT_EQ(serial, threaded);

  // And the single-thread mmap run matches too (associativity sanity).
  EXPECT_EQ(serial, mapped_sampler.SampleWalksBatch(anchors, 77, nullptr));
}

TEST(CsrEdgeLogEquivalenceTest, TrainingCheckpointsByteIdenticalAcrossPaths) {
  // End-to-end: a short training run over the mmap-built graph must leave
  // the model in the bit-for-bit state of the in-RAM-built run. The
  // checkpoint serializes embeddings, LSTM/attention parameters, optimizer
  // state, and RNG state, so byte equality is the strongest available
  // statement that the CSR swap did not perturb the training path.
  auto ds = MakePaperDataset(PaperDataset::kDblp, 0.02, 9);
  ASSERT_TRUE(ds.ok());
  const TemporalGraph& ram = ds.value();

  const std::string log = TempLogPath("ehna_csr_train.ehnl");
  ASSERT_TRUE(
      WriteEdgeLog(log, ram.edges(), ram.num_nodes(), ram.directed()).ok());
  auto mapped = TemporalGraph::FromEdgeLog(log);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  fs::remove(log);

  EhnaConfig cfg;
  cfg.dim = 4;
  cfg.num_walks = 2;
  cfg.walk_length = 3;
  cfg.num_negatives = 1;
  cfg.batch_edges = 8;
  cfg.lstm_layers = 1;
  cfg.epochs = 2;
  cfg.max_edges_per_epoch = 24;
  cfg.learning_rate = 5e-3f;
  cfg.seed = 3;

  const fs::path dir = fs::temp_directory_path() / "ehna_csr_train_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path_a = (dir / "ram.ehnc").string();
  const std::string path_b = (dir / "mapped.ehnc").string();

  EhnaModel model_a(&ram, cfg);
  model_a.Train(cfg.epochs);
  ASSERT_TRUE(model_a.SaveCheckpoint(path_a).ok());

  EhnaModel model_b(&mapped.value(), cfg);
  model_b.Train(cfg.epochs);
  ASSERT_TRUE(model_b.SaveCheckpoint(path_b).ok());

  auto read_bytes = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string bytes_a = read_bytes(path_a);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, read_bytes(path_b));
  fs::remove_all(dir);
}

// ------------------------------------------------------ edge-count ceiling

TEST(EdgeCountLimitTest, BoundaryExactlyAtThirtyTwoBits) {
  EXPECT_TRUE(TemporalGraph::ValidateEdgeCount(0).ok());
  EXPECT_TRUE(TemporalGraph::ValidateEdgeCount(TemporalGraph::kMaxEdges).ok());

  const Status over =
      TemporalGraph::ValidateEdgeCount(TemporalGraph::kMaxEdges + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  // The message names the limit and a remediation, not just "too big".
  EXPECT_NE(over.message().find("4294967295"), std::string::npos);
  EXPECT_NE(over.message().find("shard"), std::string::npos);

  EXPECT_FALSE(
      TemporalGraph::ValidateEdgeCount(uint64_t{1} << 40).ok());
}

TEST(EdgeCountLimitTest, ScaleGeneratorRefusesOverflowingRequests) {
  ScaleGraphOptions opt;
  opt.num_edges = TemporalGraph::kMaxEdges + 1;
  const Status st = StreamScaleGraph(
      opt, [](const TemporalEdge&) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("32-bit EdgeId limit"), std::string::npos);
}

// ----------------------------------------------------- scale-generator shape

TEST(ScaleGraphTest, GeneratorProducesValidConnectedishGraph) {
  ScaleGraphOptions opt;
  opt.num_nodes = 5000;
  opt.num_edges = 50'000;
  opt.seed = 4;
  auto g = MakeScaleGraph(opt);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g.value().num_nodes(), opt.num_nodes);
  EXPECT_EQ(g.value().num_edges(), opt.num_edges);

  // Timestamps are the event index: strictly increasing, spanning the run.
  EXPECT_EQ(g.value().min_time(), 0.0);
  EXPECT_EQ(g.value().max_time(),
            static_cast<Timestamp>(opt.num_edges - 1));

  // The power-law popularity draw concentrates degree on low ids: the top
  // node should dwarf the median, or the generator lost its skew.
  auto degrees = g.value().Degrees();
  std::sort(degrees.begin(), degrees.end());
  EXPECT_GT(degrees.back(), 20 * std::max<size_t>(degrees[degrees.size() / 2], 1));

  // Determinism: same options, same graph.
  auto g2 = MakeScaleGraph(opt);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g.value().edges(), g2.value().edges());
}

}  // namespace
}  // namespace ehna
