#include "graph/dynamic_graph.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace ehna {

DynamicTemporalGraph::DynamicTemporalGraph(const TemporalGraph* base,
                                           DynamicGraphOptions options)
    : base_(base),
      options_(options),
      num_nodes_(base != nullptr ? base->num_nodes() : 0),
      cache_rng_(options.seed) {
  EHNA_CHECK(base != nullptr);
  EHNA_CHECK_GT(options_.cache_capacity, 0u);
  cache_.resize(num_nodes_);
  cache_events_.resize(num_nodes_, 0);
  cache_seeded_.resize(num_nodes_, 0);
}

Status DynamicTemporalGraph::Ingest(const TemporalEdge& edge) {
  EHNA_RETURN_NOT_OK(TemporalGraph::ValidateEdge(edge));
  Status count_ok = TemporalGraph::ValidateEdgeCount(total_edges() + 1);
  if (!count_ok.ok()) return count_ok;

  const NodeId needed = std::max(edge.src, edge.dst) + 1;
  if (needed > num_nodes_) {
    num_nodes_ = needed;
    cache_.resize(num_nodes_);
    cache_events_.resize(num_nodes_, 0);
    cache_seeded_.resize(num_nodes_, 0);
  }

  // Seed from the snapshot before this event enters the reservoirs, so a
  // node's pre-existing neighbors stay candidates for refresh.
  EnsureCacheSeeded(edge.src);
  EnsureCacheSeeded(edge.dst);
  ObserveNeighbor(edge.src, edge.dst);
  ObserveNeighbor(edge.dst, edge.src);

  pending_.push_back(edge);
  return Status::OK();
}

void DynamicTemporalGraph::EnsureCacheSeeded(NodeId node) {
  if (cache_seeded_[node]) return;
  cache_seeded_[node] = 1;
  const std::span<const AdjEntry> adj =
      node < current().num_nodes() ? current().Neighbors(node)
                                   : std::span<const AdjEntry>{};
  cache_events_[node] = adj.size();
  if (adj.empty()) return;
  std::vector<NodeId>& res = cache_[node];
  if (adj.size() <= options_.cache_capacity) {
    res.reserve(adj.size());
    for (const AdjEntry& e : adj) res.push_back(e.neighbor);
    return;
  }
  res.reserve(options_.cache_capacity);
  for (size_t idx :
       cache_rng_.SampleWithoutReplacement(adj.size(), options_.cache_capacity)) {
    res.push_back(adj[idx].neighbor);
  }
}

void DynamicTemporalGraph::ObserveNeighbor(NodeId node, NodeId neighbor) {
  std::vector<NodeId>& res = cache_[node];
  const uint64_t seen = ++cache_events_[node];
  if (res.size() < options_.cache_capacity) {
    res.push_back(neighbor);
    return;
  }
  // Algorithm R: the new event replaces a random slot with probability
  // capacity / seen, keeping the reservoir a uniform sample of all events.
  const uint64_t j = cache_rng_.UniformInt(seen);
  if (j < options_.cache_capacity) res[j] = neighbor;
}

void DynamicTemporalGraph::AffectedCandidates(const TemporalEdge& edge,
                                              std::vector<NodeId>* out) const {
  out->clear();
  out->push_back(edge.src);
  out->push_back(edge.dst);
  for (const NodeId endpoint : {edge.src, edge.dst}) {
    if (endpoint >= cache_.size()) continue;
    const std::vector<NodeId>& res = cache_[endpoint];
    out->insert(out->end(), res.begin(), res.end());
  }
}

std::span<const NodeId> DynamicTemporalGraph::CachedNeighbors(
    NodeId node) const {
  if (node >= cache_.size()) return {};
  return cache_[node];
}

Status DynamicTemporalGraph::Compact() {
  if (pending_.empty()) return Status::OK();

  std::vector<TemporalEdge> delta = std::move(pending_);
  pending_.clear();
  // Stable: delta edges with equal timestamps keep arrival order, exactly
  // as FromEdges' stable_sort would order them within the concatenation.
  std::stable_sort(delta.begin(), delta.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });

  const std::vector<TemporalEdge>& head = current().edges();
  std::vector<TemporalEdge> all;
  all.reserve(head.size() + delta.size());
  // Ties draw from the snapshot side first — the stable-sort permutation of
  // the concatenated list (snapshot edges precede delta edges in it).
  std::merge(head.begin(), head.end(), delta.begin(), delta.end(),
             std::back_inserter(all),
             [](const TemporalEdge& a, const TemporalEdge& b) {
               return a.time < b.time;
             });

  Result<TemporalGraph> rebuilt =
      TemporalGraph::FromEdges(std::move(all), num_nodes_, directed());
  if (!rebuilt.ok()) {
    // Restore the delta so the overlay stays consistent (unreachable for
    // edges Ingest accepted; belt and braces).
    pending_ = std::move(delta);
    return rebuilt.status();
  }
  merged_ = std::make_unique<TemporalGraph>(std::move(rebuilt).value());
  return Status::OK();
}

}  // namespace ehna
