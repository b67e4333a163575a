#ifndef EHNA_GRAPH_GRAPH_BUILDER_H_
#define EHNA_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "graph/temporal_graph.h"
#include "util/status.h"

namespace ehna {

/// Incrementally accumulates a stream of timestamped interactions and
/// materializes immutable `TemporalGraph` snapshots. This is the intended
/// way to consume an evolving network: append events as they arrive, then
/// `Build()` (or `BuildUpTo(t)`) whenever an embedding refresh is needed —
/// mirroring the snapshot-free, event-level view the paper argues for.
class TemporalGraphBuilder {
 public:
  /// `directed` matches TemporalGraph::FromEdges semantics.
  explicit TemporalGraphBuilder(bool directed = false)
      : directed_(directed) {}

  /// Appends one interaction. Returns InvalidArgument for any edge
  /// TemporalGraph::ValidateEdge rejects (checked eagerly so a bad event is
  /// attributable to its call site rather than a later Build()).
  Status AddEdge(NodeId src, NodeId dst, Timestamp time, float weight = 1.0f);

  /// Appends a batch.
  Status AddEdges(const std::vector<TemporalEdge>& edges);

  /// Ensures the node-id space covers [0, num_nodes) even if some nodes
  /// have no events yet.
  void ReserveNodes(NodeId num_nodes);

  size_t num_edges() const { return edges_.size(); }

  /// Snapshot over every event appended so far.
  Result<TemporalGraph> Build() const;

  /// Snapshot restricted to events with time <= cutoff (the historical
  /// prefix G_t).
  Result<TemporalGraph> BuildUpTo(Timestamp cutoff) const;

 private:
  bool directed_;
  NodeId min_nodes_ = 0;
  std::vector<TemporalEdge> edges_;
};

}  // namespace ehna

#endif  // EHNA_GRAPH_GRAPH_BUILDER_H_
