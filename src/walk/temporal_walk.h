#ifndef EHNA_WALK_TEMPORAL_WALK_H_
#define EHNA_WALK_TEMPORAL_WALK_H_

#include <vector>

#include "graph/temporal_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/walk.h"

namespace ehna {

/// Configuration of the EHNA temporal random walk (§IV.A).
struct TemporalWalkConfig {
  /// Return parameter: 1/p multiplies the weight of stepping back to the
  /// previous node (d_uw = 0 in Eq. 2). p = +inf forbids backtracking.
  double p = 1.0;
  /// In-out parameter: 1/q multiplies the weight of moving two hops away
  /// from the previous node (d_uw = 2); q > 1 biases toward BFS.
  double q = 1.0;
  /// Number of steps per walk (paper default l = 10). The realized walk may
  /// be shorter if it terminates early (no relevant neighbor).
  int walk_length = 10;
  /// Walks per target node (paper default k = 10).
  int num_walks = 10;
  /// Decay rate of the kernel K (Eq. 1) in *normalized-time* units: the
  /// kernel is exp(-decay_rate * (t_ref - t) / time_span). With
  /// decay_rate = time_span the paper's raw exp(-(t_ref - t)) is recovered;
  /// exposing the rate keeps the kernel numerically sane for second- or
  /// year-resolution timestamps alike. See DESIGN.md §2.
  double decay_rate = 5.0;
  /// When false (paper's EHNA-RW ablation pairs with this), the kernel K is
  /// replaced by the static edge weight — i.e. a plain node2vec walk over
  /// the historical subgraph.
  bool use_time_decay = true;
};

/// Samples EHNA temporal random walks: starting from a target node `x` with
/// reference time `t_ref` (the timestamp of the edge formation being
/// analyzed), the walk moves only across historical edges whose timestamps
/// are non-increasing along the walk (Definition 2's relevance constraint),
/// with per-step transition weights
///   beta(u,w; p,q) * w_(v,w) * exp(-decay_rate * (t_ref - t_(v,w)) / span)
/// (Eq. 1-2). Walks terminate early when no relevant neighbor exists.
class TemporalWalkSampler {
 public:
  /// `graph` must outlive the sampler.
  TemporalWalkSampler(const TemporalGraph* graph, TemporalWalkConfig config);

  /// Samples a single walk of at most `config.walk_length` steps (plus the
  /// starting node). The first candidate set is `NeighborsBefore(start,
  /// t_ref)`.
  Walk SampleWalk(NodeId start, Timestamp ref_time, Rng* rng) const;

  /// Samples `config.num_walks` walks from `start`.
  std::vector<Walk> SampleWalks(NodeId start, Timestamp ref_time,
                                Rng* rng) const;

  /// One (start node, reference time) anchor of a batched sampling request.
  struct Anchor {
    NodeId start = 0;
    Timestamp ref_time = 0.0;
  };

  /// Samples `config.num_walks` walks for every anchor, fanning the anchors
  /// out across `pool` (serial when `pool` is null or single-threaded).
  /// Anchor i draws from the independent stream Rng::Stream(seed, i), so
  /// the output is bitwise-identical for a fixed seed regardless of thread
  /// count or scheduling.
  std::vector<std::vector<Walk>> SampleWalksBatch(
      const std::vector<Anchor>& anchors, uint64_t seed,
      ThreadPool* pool) const;

  const TemporalWalkConfig& config() const { return config_; }

 private:
  /// Unnormalized transition weight for the candidate entry `cand` when the
  /// walk sits at `v`, arrived from `prev` (kInvalidNode on the first step,
  /// which drops the beta factor per Eq. 1).
  double TransitionWeight(NodeId prev, Timestamp prev_time, NodeId v,
                          const AdjEntry& cand, Timestamp ref_time) const;

  const TemporalGraph* graph_;
  TemporalWalkConfig config_;
  double inv_span_;
  /// 1/p == 1/q == 1: every beta factor is exactly 1.0, so TransitionWeight
  /// skips the HasEdge lookup whose answer could not change the weight.
  bool uniform_beta_;
};

}  // namespace ehna

#endif  // EHNA_WALK_TEMPORAL_WALK_H_
