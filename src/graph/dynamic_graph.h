#ifndef EHNA_GRAPH_DYNAMIC_GRAPH_H_
#define EHNA_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace ehna {

/// Tuning knobs for the dynamic overlay.
struct DynamicGraphOptions {
  /// Per-node down-sampled neighbor cache capacity (reservoir size). The
  /// cache bounds refresh-candidate selection at O(capacity) per event
  /// irrespective of true degree ("Neighborhood-aware Scalable Temporal
  /// Network Representation Learning", PAPERS.md).
  size_t cache_capacity = 16;
  /// Seed of the reservoir-sampling RNG (cache contents only — never walk
  /// or training randomness).
  uint64_t seed = 0x45484E414459474EULL;  // "EHNADYGN"
};

/// A mutable streaming overlay over the immutable flat-CSR TemporalGraph:
/// ingested edges append to an O(1) delta in arrival order, queries against
/// graph structure go to the latest compacted snapshot, and Compact() merges
/// the delta into a fresh snapshot that is bitwise-indistinguishable from
/// TemporalGraph::FromEdges over the full edge multiset (pinned by
/// tests/serve_test.cc).
///
/// The equivalence argument: snapshots keep `edges()` sorted by time with
/// ties in input order (FromEdges stable_sorts). Compact stable-sorts the
/// delta by time (preserving arrival order within a tie) and merges it with
/// the already-sorted snapshot edges, ties drawing from the snapshot side —
/// exactly the permutation stable_sort would apply to the concatenated
/// list. Since every downstream observation (adjacency order, walk
/// sampling, HasEdge) is a function of the sorted edge list, overlay-built
/// graphs walk bitwise-identically to rebuilt-from-scratch ones.
///
/// Alongside the delta, the overlay maintains bounded per-node neighbor
/// caches (uniform reservoir over every adjacency event a node has seen,
/// seeded from the base snapshot's adjacency on a node's first event) so
/// the serving layer can pick incremental-refresh candidates — the
/// endpoints plus a bounded sample of the nodes whose neighborhoods the new
/// edge entered — in O(cache_capacity) per event instead of O(degree).
///
/// Not thread-safe; the serving layer serializes mutation behind its write
/// lock.
class DynamicTemporalGraph {
 public:
  /// `base` must outlive the overlay. New node ids past the base's range
  /// are accepted and grow num_nodes().
  explicit DynamicTemporalGraph(const TemporalGraph* base,
                                DynamicGraphOptions options = {});

  /// The latest compacted snapshot (the base until the first Compact).
  /// Pending (un-compacted) edges are NOT visible here.
  const TemporalGraph& current() const {
    return merged_ != nullptr ? *merged_ : *base_;
  }

  /// Nodes across base + pending delta (max endpoint id + 1).
  NodeId num_nodes() const { return num_nodes_; }
  /// Edges appended since the last Compact.
  size_t pending_edges() const { return pending_.size(); }
  /// Snapshot edges + pending delta.
  uint64_t total_edges() const { return current().num_edges() + pending_.size(); }
  bool directed() const { return current().directed(); }

  /// Appends one edge to the delta: O(1) plus O(cache_capacity) reservoir
  /// maintenance. Applies FromEdges' validation eagerly
  /// (TemporalGraph::ValidateEdge, edge-count ceiling) so Compact cannot
  /// fail on data accepted here. Timestamps may arrive out of
  /// order — Compact's stable merge restores chronology.
  Status Ingest(const TemporalEdge& edge);

  /// The bounded refresh-candidate set for `edge`: its endpoints plus the
  /// cached (down-sampled) neighbors of each endpoint — the nodes whose
  /// historical neighborhoods the edge just entered. Call after Ingest so
  /// the caches already include this event. May contain duplicates.
  void AffectedCandidates(const TemporalEdge& edge,
                          std::vector<NodeId>* out) const;

  /// The current reservoir contents for `node` (empty for nodes with no
  /// observed events). Exposed for tests.
  std::span<const NodeId> CachedNeighbors(NodeId node) const;

  /// Merges the pending delta into a fresh snapshot (see class comment for
  /// the bitwise-equivalence argument) and clears the delta. No-op when
  /// nothing is pending. On failure the overlay is unchanged.
  Status Compact();

 private:
  /// First event for `node`: seeds its reservoir with a uniform sample of
  /// its snapshot adjacency, so pre-existing neighbors are candidates too.
  void EnsureCacheSeeded(NodeId node);
  /// One reservoir step: `neighbor` entered `node`'s adjacency.
  void ObserveNeighbor(NodeId node, NodeId neighbor);

  const TemporalGraph* base_;
  std::unique_ptr<TemporalGraph> merged_;  // null until the first Compact.
  DynamicGraphOptions options_;
  std::vector<TemporalEdge> pending_;  // arrival order.
  NodeId num_nodes_ = 0;

  std::vector<std::vector<NodeId>> cache_;  // per-node reservoir.
  std::vector<uint64_t> cache_events_;      // reservoir denominators.
  std::vector<uint8_t> cache_seeded_;
  Rng cache_rng_;
};

}  // namespace ehna

#endif  // EHNA_GRAPH_DYNAMIC_GRAPH_H_
