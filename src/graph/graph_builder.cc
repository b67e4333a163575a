#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace ehna {

Status TemporalGraphBuilder::AddEdge(NodeId src, NodeId dst, Timestamp time,
                                     float weight) {
  const TemporalEdge edge{src, dst, time, weight};
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdge(edge));
  edges_.push_back(edge);
  return Status::OK();
}

Status TemporalGraphBuilder::AddEdges(const std::vector<TemporalEdge>& edges) {
  for (const auto& e : edges) {
    EHNA_RETURN_NOT_OK(AddEdge(e.src, e.dst, e.time, e.weight));
  }
  return Status::OK();
}

void TemporalGraphBuilder::ReserveNodes(NodeId num_nodes) {
  min_nodes_ = std::max(min_nodes_, num_nodes);
}

Result<TemporalGraph> TemporalGraphBuilder::Build() const {
  NodeId num_nodes = min_nodes_;
  for (const auto& e : edges_) {
    num_nodes = std::max({num_nodes, e.src + 1, e.dst + 1});
  }
  return TemporalGraph::FromEdges(edges_, num_nodes, directed_);
}

Result<TemporalGraph> TemporalGraphBuilder::BuildUpTo(Timestamp cutoff) const {
  std::vector<TemporalEdge> prefix;
  prefix.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (e.time <= cutoff) prefix.push_back(e);
  }
  NodeId num_nodes = min_nodes_;
  for (const auto& e : edges_) {
    // Keep the full node-id space so embeddings stay aligned across
    // snapshots even when late nodes are absent from early prefixes.
    num_nodes = std::max({num_nodes, e.src + 1, e.dst + 1});
  }
  return TemporalGraph::FromEdges(std::move(prefix), num_nodes, directed_);
}

}  // namespace ehna
