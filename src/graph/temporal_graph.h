#ifndef EHNA_GRAPH_TEMPORAL_GRAPH_H_
#define EHNA_GRAPH_TEMPORAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace ehna {

class EdgeLogReader;  // graph/edge_log.h

/// Node identifier. Nodes are dense integers in [0, num_nodes).
using NodeId = uint32_t;
/// Index into the graph's chronological edge list.
using EdgeId = uint32_t;
/// Edge creation time. The library treats timestamps as opaque reals; the
/// walk/attention code normalizes them relative to the graph's time span.
using Timestamp = double;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One timestamped, weighted interaction (Definition 1 in the paper).
struct TemporalEdge {
  NodeId src = 0;
  NodeId dst = 0;
  Timestamp time = 0.0;
  float weight = 1.0f;

  bool operator==(const TemporalEdge&) const = default;
};

/// One adjacency slot: the neighbor reached, the annotation of the edge that
/// reaches it, and the id of the underlying logical edge.
struct AdjEntry {
  NodeId neighbor = 0;
  Timestamp time = 0.0;
  float weight = 1.0f;
  EdgeId edge_id = 0;
};

/// An immutable temporal network (Definition 1): nodes 0..n-1 and a
/// chronologically sorted multiset of timestamped edges. By default edges
/// are undirected (each logical edge appears in both endpoints' adjacency
/// lists). Storage is flat CSR (DESIGN.md §12): one contiguous `AdjEntry`
/// array sorted by ascending timestamp within each node's segment plus a
/// per-node offset table, so the historical prefix "all interactions at or
/// before time t" (the domain of the temporal random walk, Definition 2) is
/// a binary-searchable prefix of a contiguous range; a parallel
/// neighbor-sorted id array over the same offsets serves static
/// connectivity queries (HasEdge) in O(log d) with 4 bytes per slot.
class TemporalGraph {
 public:
  /// Hard ceiling on the logical edge count: `EdgeId` is 32-bit, and the
  /// chronological fill loop indexes edges with it, so a count that does
  /// not fit would silently wrap ids. FromEdges/FromEdgeLog reject larger
  /// inputs with a clear error instead (ValidateEdgeCount).
  static constexpr uint64_t kMaxEdges = 0xFFFFFFFFull;

  /// OK iff a graph of `count` edges is representable (count <= kMaxEdges).
  /// Factored out of the builders so the overflow boundary is testable
  /// without materializing 4 billion edges.
  static Status ValidateEdgeCount(uint64_t count);

  /// OK iff `edge` may enter a graph: finite time, finite non-negative
  /// weight, distinct endpoints, and neither endpoint the reserved
  /// kInvalidNode (whose id + 1 would wrap the node count to 0). The one
  /// edge check shared by FromEdges, TemporalGraphBuilder, the edge-log
  /// writer, and DynamicTemporalGraph::Ingest.
  static Status ValidateEdge(const TemporalEdge& edge);

  /// Builds a graph from `edges`. Node ids must be < `num_nodes`; if
  /// `num_nodes` is 0 it is inferred as max id + 1. Self-loops are rejected.
  /// When `directed` is false (the paper's setting for all four datasets)
  /// each edge contributes adjacency in both directions.
  static Result<TemporalGraph> FromEdges(std::vector<TemporalEdge> edges,
                                         NodeId num_nodes = 0,
                                         bool directed = false);

  /// Builds a graph from an already-validated memory-mapped edge log
  /// (graph/edge_log.h). Log records are time-sorted by construction, so
  /// this skips the sort and copies records straight into the CSR build —
  /// the resulting graph is indistinguishable (including iteration order
  /// and walk output) from FromEdges on the same edge multiset.
  static Result<TemporalGraph> FromEdgeLog(const EdgeLogReader& log);

  /// Convenience: EdgeLogReader::Open + FromEdgeLog.
  static Result<TemporalGraph> FromEdgeLog(const std::string& path);

  TemporalGraph() = default;

  NodeId num_nodes() const { return num_nodes_; }
  /// Number of logical (input) edges.
  size_t num_edges() const { return edges_.size(); }
  bool directed() const { return directed_; }

  /// All logical edges, sorted by ascending timestamp (ties broken by input
  /// order). `EdgeId` values index into this vector.
  const std::vector<TemporalEdge>& edges() const { return edges_; }

  /// Full adjacency of `node`, ascending in time.
  std::span<const AdjEntry> Neighbors(NodeId node) const;

  /// The historical prefix of `node`'s adjacency: entries with
  /// `time <= cutoff`. O(log d) via binary search on the sorted adjacency.
  std::span<const AdjEntry> NeighborsBefore(NodeId node, Timestamp cutoff) const;

  /// Number of adjacency entries of `node` (== degree for undirected graphs).
  size_t Degree(NodeId node) const;

  /// True if any edge (in either direction for undirected graphs) connects
  /// u and v, irrespective of time. Used by the second-order walk bias
  /// (Eq. 2's shortest-path distance d_uw ∈ {0,1,2}). O(log deg(u)) over
  /// the neighbor-sorted CSR index; out-of-range u never has edges.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Timestamp of `node`'s most recent interaction; NotFound for isolated
  /// nodes.
  Result<Timestamp> MostRecentInteraction(NodeId node) const;

  /// Earliest / latest edge timestamps (0 for empty graphs).
  Timestamp min_time() const { return min_time_; }
  Timestamp max_time() const { return max_time_; }
  /// max_time - min_time, floored at a tiny epsilon so that callers can
  /// divide by it.
  Timestamp TimeSpan() const;

  /// Sum of adjacency weights at `node`.
  double WeightedDegree(NodeId node) const;

  /// Degrees of all nodes (adjacency-entry counts).
  std::vector<size_t> Degrees() const;

 private:
  /// Builds the CSR arrays from `edges_` (which must already be sorted by
  /// non-decreasing time) for the current num_nodes_/directed_ setting.
  void BuildAdjacency();

  NodeId num_nodes_ = 0;
  bool directed_ = false;
  std::vector<TemporalEdge> edges_;   // sorted by time.
  std::vector<size_t> adj_offsets_;   // CSR offsets, size num_nodes_+1.
  std::vector<AdjEntry> adj_;         // per-node, ascending time.
  std::vector<NodeId> nbr_sorted_;    // per-node neighbor ids, ascending id;
                                      // shares adj_offsets_. Connectivity
                                      // index behind HasEdge.
  Timestamp min_time_ = 0.0;
  Timestamp max_time_ = 0.0;
};

}  // namespace ehna

#endif  // EHNA_GRAPH_TEMPORAL_GRAPH_H_
