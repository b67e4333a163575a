#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/edgelist_io.h"
#include "graph/graph_builder.h"
#include "graph/noise_distribution.h"
#include "graph/split.h"
#include "graph/temporal_graph.h"

namespace ehna {
namespace {

std::vector<TemporalEdge> TriangleEdges() {
  // 0-1 at t=1, 1-2 at t=2, 0-2 at t=3.
  return {{0, 1, 1.0, 1.0f}, {1, 2, 2.0, 1.0f}, {0, 2, 3.0, 1.0f}};
}

TEST(TemporalGraphTest, BuildsFromEdges) {
  auto g = TemporalGraph::FromEdges(TriangleEdges());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3u);
  EXPECT_EQ(g.value().num_edges(), 3u);
  EXPECT_FALSE(g.value().directed());
}

TEST(TemporalGraphTest, RejectsSelfLoops) {
  auto g = TemporalGraph::FromEdges({{1, 1, 0.0, 1.0f}});
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(TemporalGraphTest, RejectsNegativeWeights) {
  auto g = TemporalGraph::FromEdges({{0, 1, 0.0, -1.0f}});
  EXPECT_FALSE(g.ok());
}

TEST(TemporalGraphTest, RejectsOutOfRangeNodeIds) {
  auto g = TemporalGraph::FromEdges({{0, 5, 0.0, 1.0f}}, /*num_nodes=*/3);
  EXPECT_FALSE(g.ok());
}

// Every edge entry point shares TemporalGraph::ValidateEdge. Before it,
// FromEdges and the builder let NaN slip past `weight < 0` and handed NaN
// times to stable_sort's comparator (no strict weak order: UB), and the
// builder's `id + 1` node count wrapped to 0 for kInvalidNode.
TEST(TemporalGraphTest, ValidateEdgeRejectsNonFiniteAndReservedIds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const float nanf = std::numeric_limits<float>::quiet_NaN();
  const float inff = std::numeric_limits<float>::infinity();
  const std::vector<TemporalEdge> bad = {
      {0, 1, nan, 1.0f},  {0, 1, inf, 1.0f},   {0, 1, -inf, 1.0f},
      {0, 1, 2.0, nanf},  {0, 1, 2.0, inff},   {0, 1, 2.0, -0.5f},
      {3, 3, 2.0, 1.0f},  {kInvalidNode, 1, 2.0, 1.0f},
      {1, kInvalidNode, 2.0, 1.0f},
  };
  for (const TemporalEdge& e : bad) {
    SCOPED_TRACE(std::to_string(e.src) + "->" + std::to_string(e.dst) +
                 " t=" + std::to_string(e.time) +
                 " w=" + std::to_string(e.weight));
    EXPECT_EQ(TemporalGraph::ValidateEdge(e).code(),
              StatusCode::kInvalidArgument);
    // FromEdges, with the bad edge among good ones.
    std::vector<TemporalEdge> edges = TriangleEdges();
    edges.insert(edges.begin() + 1, e);
    auto g = TemporalGraph::FromEdges(edges);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
    // The builder rejects it at AddEdge and keeps no trace of it.
    TemporalGraphBuilder builder;
    EXPECT_EQ(builder.AddEdge(e.src, e.dst, e.time, e.weight).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(builder.AddEdges(TriangleEdges()).ok());
    auto built = builder.Build();
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built.value().num_nodes(), 3u);
  }
  EXPECT_TRUE(TemporalGraph::ValidateEdge({0, 1, 2.0, 0.0f}).ok());
  EXPECT_TRUE(TemporalGraph::ValidateEdge({kInvalidNode - 1, 0, -3.0}).ok());
}

TEST(TemporalGraphTest, ExplicitNumNodesAllowsIsolated) {
  auto g = TemporalGraph::FromEdges({{0, 1, 0.0, 1.0f}}, /*num_nodes=*/10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 10u);
  EXPECT_EQ(g.value().Degree(9), 0u);
}

TEST(TemporalGraphTest, EdgesSortedByTime) {
  auto g = TemporalGraph::FromEdges(
      {{0, 1, 5.0, 1.0f}, {1, 2, 1.0, 1.0f}, {2, 3, 3.0, 1.0f}});
  ASSERT_TRUE(g.ok());
  const auto& edges = g.value().edges();
  EXPECT_DOUBLE_EQ(edges[0].time, 1.0);
  EXPECT_DOUBLE_EQ(edges[1].time, 3.0);
  EXPECT_DOUBLE_EQ(edges[2].time, 5.0);
}

TEST(TemporalGraphTest, AdjacencyChronological) {
  auto g = TemporalGraph::FromEdges(
      {{0, 1, 5.0, 1.0f}, {0, 2, 1.0, 1.0f}, {0, 3, 3.0, 1.0f}});
  ASSERT_TRUE(g.ok());
  auto nbrs = g.value().Neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].neighbor, 2u);
  EXPECT_EQ(nbrs[1].neighbor, 3u);
  EXPECT_EQ(nbrs[2].neighbor, 1u);
}

TEST(TemporalGraphTest, UndirectedAdjacencyBothSides) {
  auto g = TemporalGraph::FromEdges(TriangleEdges());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().Degree(0), 2u);
  EXPECT_EQ(g.value().Degree(1), 2u);
  EXPECT_EQ(g.value().Degree(2), 2u);
}

TEST(TemporalGraphTest, DirectedAdjacencyOneSide) {
  auto g = TemporalGraph::FromEdges(TriangleEdges(), 0, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().Degree(0), 2u);  // 0->1, 0->2.
  EXPECT_EQ(g.value().Degree(2), 0u);
}

TEST(TemporalGraphTest, NeighborsBeforeIsPrefix) {
  auto g = TemporalGraph::FromEdges(TriangleEdges());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().NeighborsBefore(0, 0.5).size(), 0u);
  EXPECT_EQ(g.value().NeighborsBefore(0, 1.0).size(), 1u);  // inclusive.
  EXPECT_EQ(g.value().NeighborsBefore(0, 2.9).size(), 1u);
  EXPECT_EQ(g.value().NeighborsBefore(0, 3.0).size(), 2u);
  EXPECT_EQ(g.value().NeighborsBefore(0, 100.0).size(), 2u);
}

TEST(TemporalGraphTest, HasEdgeSymmetricWhenUndirected) {
  auto g = TemporalGraph::FromEdges(TriangleEdges());
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g.value().HasEdge(0, 1));
  EXPECT_TRUE(g.value().HasEdge(1, 0));
  EXPECT_FALSE(g.value().HasEdge(0, 0));
}

TEST(TemporalGraphTest, HasEdgeDirectional) {
  auto g = TemporalGraph::FromEdges({{0, 1, 1.0, 1.0f}}, 0, true);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g.value().HasEdge(0, 1));
  EXPECT_FALSE(g.value().HasEdge(1, 0));
}

TEST(TemporalGraphTest, MostRecentInteraction) {
  auto g = TemporalGraph::FromEdges(TriangleEdges(), /*num_nodes=*/4);
  ASSERT_TRUE(g.ok());
  auto t0 = g.value().MostRecentInteraction(0);
  ASSERT_TRUE(t0.ok());
  EXPECT_DOUBLE_EQ(t0.value(), 3.0);
  auto t3 = g.value().MostRecentInteraction(3);
  EXPECT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), StatusCode::kNotFound);
}

TEST(TemporalGraphTest, TimeBoundsAndSpan) {
  auto g = TemporalGraph::FromEdges(TriangleEdges());
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g.value().min_time(), 1.0);
  EXPECT_DOUBLE_EQ(g.value().max_time(), 3.0);
  EXPECT_DOUBLE_EQ(g.value().TimeSpan(), 2.0);
}

TEST(TemporalGraphTest, TimeSpanFlooredForSingleInstant) {
  auto g = TemporalGraph::FromEdges({{0, 1, 7.0, 1.0f}});
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g.value().TimeSpan(), 0.0);
}

TEST(TemporalGraphTest, WeightedDegreeSumsWeights) {
  auto g = TemporalGraph::FromEdges(
      {{0, 1, 1.0, 2.0f}, {0, 2, 2.0, 3.5f}});
  ASSERT_TRUE(g.ok());
  EXPECT_FLOAT_EQ(g.value().WeightedDegree(0), 5.5f);
}

TEST(TemporalGraphTest, DegreesVector) {
  auto g = TemporalGraph::FromEdges(TriangleEdges(), 4);
  ASSERT_TRUE(g.ok());
  const auto d = g.value().Degrees();
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d[0], 2u);
  EXPECT_EQ(d[3], 0u);
}

TEST(TemporalGraphTest, EmptyGraph) {
  auto g = TemporalGraph::FromEdges({});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 0u);
  EXPECT_EQ(g.value().num_edges(), 0u);
}

// --------------------------------------------------------------- I/O

TEST(EdgeListIoTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_test.txt").string();
  std::vector<TemporalEdge> edges{{0, 1, 1.5, 2.0f}, {2, 3, 4.0, 1.0f}};
  ASSERT_TRUE(WriteEdgeList(path, edges).ok());
  auto read = ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), edges);
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, SkipsCommentsAndDefaultsWeight) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_test2.txt").string();
  {
    std::ofstream out(path);
    out << "# comment\n% other comment\n\n1 2 3.5\n";
  }
  auto read = ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(read.value()[0].src, 1u);
  EXPECT_EQ(read.value()[0].dst, 2u);
  EXPECT_DOUBLE_EQ(read.value()[0].time, 3.5);
  EXPECT_FLOAT_EQ(read.value()[0].weight, 1.0f);
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, MalformedLineFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_test3.txt").string();
  {
    std::ofstream out(path);
    out << "1 2\n";  // missing timestamp.
  }
  EXPECT_FALSE(ReadEdgeList(path).ok());
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, RejectsNonFiniteTimestampsAndWeights) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_nonfinite.txt")
          .string();
  for (const char* bad : {"0 1 nan\n", "0 1 inf\n", "0 1 -inf\n",
                          "0 1 1e999\n", "0 1 1.0 nan\n", "0 1 1.0 inf\n"}) {
    {
      std::ofstream out(path);
      out << "0 1 1.0\n" << bad;
    }
    auto r = ReadEdgeList(path);
    ASSERT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    // The error names the offending line (line 2 here).
    EXPECT_NE(r.status().message().find(":2"), std::string::npos)
        << r.status().message();
  }
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, RejectsPartiallyNumericTokensAndTrailingGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_garbage.txt")
          .string();
  for (const char* bad :
       {"0 1 3.5x\n", "0 1 3.5 1.0x\n", "0 1 3.5 1.0 surprise\n"}) {
    {
      std::ofstream out(path);
      out << bad;
    }
    auto r = ReadEdgeList(path);
    ASSERT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, RejectsInvalidEdgesWithFileAndLine) {
  // Lines that parse as tokens but describe an edge no graph accepts are
  // refused by ReadEdgeList itself, naming the file and line — not later
  // by FromEdges with no location. 1e300 is beyond float range, so the
  // reader must refuse it before narrowing the weight to float.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_invalid.txt")
          .string();
  const std::pair<const char*, const char*> cases[] = {
      {"2 2 2.0\n", "self-loop on node 2"},
      {"1 2 2.0 -1\n", "non-finite or negative edge weight"},
      {"1 2 2.0 1e300\n", "out of float range"},
  };
  for (const auto& [bad, why] : cases) {
    {
      std::ofstream out(path);
      out << "0 1 1.0\n" << bad;
    }
    auto r = ReadEdgeList(path);
    ASSERT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(why), std::string::npos)
        << r.status().message();
    EXPECT_NE(r.status().message().find(path + ":2"), std::string::npos)
        << r.status().message();
  }
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, WriteReadRoundTripIsExact) {
  // max_digits10 output makes write/read lossless even for timestamps with
  // no short decimal form.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_exact.txt").string();
  std::vector<TemporalEdge> edges{{0, 1, 1.0 / 3.0, 0.1f},
                                  {2, 3, 1234567890.123456, 2.5f}};
  ASSERT_TRUE(WriteEdgeList(path, edges).ok());
  auto read = ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), edges);
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, MissingFileFails) {
  auto r = ReadEdgeList("/nonexistent_zzz/edges.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(EdgeListIoTest, LoadTemporalGraphConvenience) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_io_test4.txt").string();
  {
    std::ofstream out(path);
    out << "0 1 1\n1 2 2\n";
  }
  auto g = LoadTemporalGraph(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3u);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- Split

std::vector<TemporalEdge> ChainEdges(int n) {
  std::vector<TemporalEdge> edges;
  for (int i = 0; i + 1 < n; ++i) {
    edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                     static_cast<Timestamp>(i), 1.0f});
  }
  return edges;
}

TEST(TemporalSplitTest, HoldsOutMostRecentEdges) {
  auto g = TemporalGraph::FromEdges(ChainEdges(101));
  ASSERT_TRUE(g.ok());
  Rng rng(1);
  TemporalSplitOptions opt;
  opt.holdout_fraction = 0.2;
  opt.drop_unseen_endpoints = false;
  auto split = MakeTemporalSplit(g.value(), opt, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split.value().train.num_edges(), 80u);
  EXPECT_EQ(split.value().test_positive.size(), 20u);
  // Held-out edges are strictly the latest ones.
  for (const auto& e : split.value().test_positive) {
    EXPECT_GE(e.time, 80.0);
  }
}

// A multigraph over 12 nodes where every node interacts early and late, so
// temporal holdouts never orphan an endpoint.
std::vector<TemporalEdge> RecurringEdges(int events) {
  std::vector<TemporalEdge> edges;
  for (int i = 0; i < events; ++i) {
    const NodeId u = static_cast<NodeId>(i % 12);
    const NodeId v = static_cast<NodeId>((i + 1 + i % 5) % 12);
    if (u == v) continue;
    edges.push_back({u, v, static_cast<Timestamp>(i), 1.0f});
  }
  return edges;
}

TEST(TemporalSplitTest, NegativesAreNonEdges) {
  auto g = TemporalGraph::FromEdges(RecurringEdges(100));
  ASSERT_TRUE(g.ok());
  Rng rng(2);
  auto split = MakeTemporalSplit(g.value(), {}, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split.value().test_negative.size(),
            split.value().test_positive.size());
  for (const auto& [u, v] : split.value().test_negative) {
    EXPECT_NE(u, v);
    EXPECT_FALSE(g.value().HasEdge(u, v));
  }
}

TEST(TemporalSplitTest, DropUnseenEndpointsFiltersTestEdges) {
  // Last edge introduces a brand-new pair of nodes.
  std::vector<TemporalEdge> edges = RecurringEdges(20);
  edges.push_back({30, 31, 100.0, 1.0f});
  auto g = TemporalGraph::FromEdges(edges, /*num_nodes=*/32);
  ASSERT_TRUE(g.ok());
  Rng rng(3);
  TemporalSplitOptions opt;
  opt.holdout_fraction = 0.2;
  opt.drop_unseen_endpoints = true;
  auto split = MakeTemporalSplit(g.value(), opt, &rng);
  ASSERT_TRUE(split.ok());
  for (const auto& e : split.value().test_positive) {
    EXPECT_GT(split.value().train.Degree(e.src), 0u);
    EXPECT_GT(split.value().train.Degree(e.dst), 0u);
  }
}

TEST(TemporalSplitTest, InvalidFractionRejected) {
  auto g = TemporalGraph::FromEdges(ChainEdges(10));
  ASSERT_TRUE(g.ok());
  Rng rng(4);
  TemporalSplitOptions opt;
  opt.holdout_fraction = 1.5;
  EXPECT_FALSE(MakeTemporalSplit(g.value(), opt, &rng).ok());
}

TEST(TemporalSplitTest, TooSmallGraphRejected) {
  auto g = TemporalGraph::FromEdges(ChainEdges(3));
  ASSERT_TRUE(g.ok());
  Rng rng(5);
  TemporalSplitOptions opt;
  opt.holdout_fraction = 0.01;  // holdout rounds to zero.
  EXPECT_FALSE(MakeTemporalSplit(g.value(), opt, &rng).ok());
}

// ------------------------------------------------- NoiseDistribution

TEST(NoiseDistributionTest, SamplesProportionalToDegreePower) {
  // Star: node 0 has degree 4, leaves have degree 1.
  std::vector<TemporalEdge> edges;
  for (NodeId v = 1; v <= 4; ++v) {
    edges.push_back({0, v, static_cast<Timestamp>(v), 1.0f});
  }
  auto g = TemporalGraph::FromEdges(edges);
  ASSERT_TRUE(g.ok());
  NoiseDistribution noise(g.value(), 0.75);
  Rng rng(6);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[noise.Sample(&rng)];
  const double w0 = std::pow(4.0, 0.75);
  const double total = w0 + 4.0;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), w0 / total, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 1.0 / total, 0.01);
}

TEST(NoiseDistributionTest, IsolatedNodesNeverSampled) {
  auto g = TemporalGraph::FromEdges({{0, 1, 1.0, 1.0f}}, /*num_nodes=*/5);
  ASSERT_TRUE(g.ok());
  NoiseDistribution noise(g.value());
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const NodeId v = noise.Sample(&rng);
    EXPECT_LE(v, 1u);
  }
}

TEST(NoiseDistributionTest, SampleExcludingAvoidsListedNodes) {
  auto g = TemporalGraph::FromEdges(ChainEdges(10));
  ASSERT_TRUE(g.ok());
  NoiseDistribution noise(g.value());
  Rng rng(8);
  const NodeId exclude[] = {0, 1, 2};
  for (int i = 0; i < 2000; ++i) {
    const NodeId v = noise.SampleExcluding(exclude, &rng);
    EXPECT_GT(v, 2u);
  }
}

}  // namespace
}  // namespace ehna
