#include "graph/temporal_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"

namespace ehna {

Status TemporalGraph::ValidateEdgeCount(uint64_t count) {
  if (count > kMaxEdges) {
    return Status::InvalidArgument(
        "edge count " + std::to_string(count) +
        " exceeds the 32-bit EdgeId limit of " + std::to_string(kMaxEdges) +
        " edges; shard the graph or widen EdgeId");
  }
  return Status::OK();
}

Status TemporalGraph::ValidateEdge(const TemporalEdge& edge) {
  if (edge.src == kInvalidNode || edge.dst == kInvalidNode) {
    return Status::InvalidArgument("node id " + std::to_string(kInvalidNode) +
                                   " is reserved (kInvalidNode)");
  }
  if (edge.src == edge.dst) {
    return Status::InvalidArgument("self-loop on node " +
                                   std::to_string(edge.src));
  }
  if (!std::isfinite(edge.time)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  if (!std::isfinite(edge.weight) || edge.weight < 0.0f) {
    return Status::InvalidArgument("non-finite or negative edge weight");
  }
  return Status::OK();
}

Result<TemporalGraph> TemporalGraph::FromEdges(std::vector<TemporalEdge> edges,
                                               NodeId num_nodes,
                                               bool directed) {
  EHNA_RETURN_NOT_OK(ValidateEdgeCount(edges.size()));
  TemporalGraph g;
  g.directed_ = directed;

  NodeId max_id = 0;
  for (const auto& e : edges) {
    EHNA_RETURN_NOT_OK(ValidateEdge(e));
    max_id = std::max(max_id, std::max(e.src, e.dst));
  }
  if (num_nodes == 0) {
    num_nodes = edges.empty() ? 0 : max_id + 1;
  } else if (!edges.empty() && max_id >= num_nodes) {
    return Status::InvalidArgument("edge endpoint " + std::to_string(max_id) +
                                   " >= num_nodes " +
                                   std::to_string(num_nodes));
  }
  g.num_nodes_ = num_nodes;

  std::stable_sort(edges.begin(), edges.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });
  g.edges_ = std::move(edges);
  g.BuildAdjacency();
  return g;
}

void TemporalGraph::BuildAdjacency() {
  const NodeId num_nodes = num_nodes_;
  if (!edges_.empty()) {
    min_time_ = edges_.front().time;
    max_time_ = edges_.back().time;
  }

  // Count adjacency slots per node directly into the offset table (shifted
  // by one), then prefix-sum in place — no separate counts vector, which at
  // 10⁶ nodes is 8 MB saved off the build's peak.
  adj_offsets_.assign(num_nodes + 1, 0);
  for (const auto& e : edges_) {
    ++adj_offsets_[e.src + 1];
    if (!directed_) ++adj_offsets_[e.dst + 1];
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    adj_offsets_[v + 1] += adj_offsets_[v];
  }
  adj_.resize(adj_offsets_[num_nodes]);

  // Fill in chronological order: edges_ is time-sorted, so appending each
  // edge to its endpoints' cursors leaves every adjacency list ascending in
  // time without a per-node sort.
  std::vector<size_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const TemporalEdge& e = edges_[id];
    adj_[cursor[e.src]++] = AdjEntry{e.dst, e.time, e.weight, id};
    if (!directed_) {
      adj_[cursor[e.dst]++] = AdjEntry{e.src, e.time, e.weight, id};
    }
  }

  // Static connectivity index: the same CSR segments with neighbor ids
  // sorted ascending, so HasEdge is a binary search instead of a hash
  // probe. 4 bytes per adjacency slot, vs ~50 per edge for the
  // unordered_set this replaced — the difference between fitting a
  // 10⁷-edge graph's index in cache-friendly flat memory and a gigabyte of
  // hash nodes.
  nbr_sorted_.resize(adj_.size());
  for (size_t i = 0; i < adj_.size(); ++i) nbr_sorted_[i] = adj_[i].neighbor;
  for (NodeId v = 0; v < num_nodes; ++v) {
    std::sort(nbr_sorted_.begin() + adj_offsets_[v],
              nbr_sorted_.begin() + adj_offsets_[v + 1]);
  }
}

std::span<const AdjEntry> TemporalGraph::Neighbors(NodeId node) const {
  EHNA_DCHECK(node < num_nodes_);
  return {adj_.data() + adj_offsets_[node],
          adj_offsets_[node + 1] - adj_offsets_[node]};
}

std::span<const AdjEntry> TemporalGraph::NeighborsBefore(
    NodeId node, Timestamp cutoff) const {
  auto all = Neighbors(node);
  auto it = std::upper_bound(
      all.begin(), all.end(), cutoff,
      [](Timestamp t, const AdjEntry& a) { return t < a.time; });
  return all.subspan(0, static_cast<size_t>(it - all.begin()));
}

size_t TemporalGraph::Degree(NodeId node) const {
  EHNA_DCHECK(node < num_nodes_);
  return adj_offsets_[node + 1] - adj_offsets_[node];
}

bool TemporalGraph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_) return false;
  return std::binary_search(nbr_sorted_.begin() + adj_offsets_[u],
                            nbr_sorted_.begin() + adj_offsets_[u + 1], v);
}

Result<Timestamp> TemporalGraph::MostRecentInteraction(NodeId node) const {
  auto nbrs = Neighbors(node);
  if (nbrs.empty()) {
    return Status::NotFound("node " + std::to_string(node) + " is isolated");
  }
  return nbrs.back().time;
}

Timestamp TemporalGraph::TimeSpan() const {
  const Timestamp span = max_time_ - min_time_;
  return span > 1e-12 ? span : 1e-12;
}

double TemporalGraph::WeightedDegree(NodeId node) const {
  double total = 0.0;
  for (const auto& a : Neighbors(node)) total += a.weight;
  return total;
}

std::vector<size_t> TemporalGraph::Degrees() const {
  std::vector<size_t> d(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) d[v] = Degree(v);
  return d;
}

}  // namespace ehna
