#include "walk/temporal_walk.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/metrics.h"

namespace ehna {
namespace {

/// Degree above which candidate selection switches from a linear scan of
/// the inclusive prefix sums to binary search. Below this the scan wins on
/// branch predictability and cache residency.
constexpr size_t kBinarySearchDegree = 16;

/// Per-thread scratch for the transition-weight prefix sums. SampleWalk is
/// on the trainer's per-edge hot path and runs concurrently from worker
/// shards; a function-local vector would pay one allocation per call and
/// serialize the workers on the allocator.
std::vector<double>& PrefixScratch() {
  static thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace

TemporalWalkSampler::TemporalWalkSampler(const TemporalGraph* graph,
                                         TemporalWalkConfig config)
    : graph_(graph),
      config_(config),
      inv_span_(1.0 / graph->TimeSpan()),
      uniform_beta_(1.0 / config.p == 1.0 && 1.0 / config.q == 1.0) {
  EHNA_CHECK(graph != nullptr);
  EHNA_CHECK_GT(config_.p, 0.0);
  EHNA_CHECK_GT(config_.q, 0.0);
  EHNA_CHECK_GE(config_.walk_length, 1);
  EHNA_CHECK_GE(config_.num_walks, 1);
}

double TemporalWalkSampler::TransitionWeight(NodeId prev, Timestamp prev_time,
                                             NodeId v, const AdjEntry& cand,
                                             Timestamp ref_time) const {
  (void)prev_time;
  (void)v;
  double kernel = cand.weight;
  if (config_.use_time_decay) {
    const double dt = (ref_time - cand.time) * inv_span_;
    kernel *= std::exp(-config_.decay_rate * (dt > 0.0 ? dt : 0.0));
  }
  if (prev == kInvalidNode) return kernel;  // first step: no beta factor.
  if (uniform_beta_) return kernel;  // 1.0 * kernel == kernel exactly.

  double beta;
  if (cand.neighbor == prev) {
    beta = std::isinf(config_.p) ? 0.0 : 1.0 / config_.p;  // d_uw = 0.
  } else if (graph_->HasEdge(prev, cand.neighbor)) {
    beta = 1.0;  // d_uw = 1.
  } else {
    beta = 1.0 / config_.q;  // d_uw = 2.
  }
  return beta * kernel;
}

Walk TemporalWalkSampler::SampleWalk(NodeId start, Timestamp ref_time,
                                     Rng* rng) const {
  // Corpus telemetry (DESIGN.md §8). Counts accumulate locally and flush
  // once per walk, so the per-step hot loop stays untouched.
  static Counter* const walks_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.walks");
  static Counter* const steps_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.steps");
  static Counter* const early_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.early_terminations");
  static Counter* const rejected_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.rejected_steps");
  // The degenerate anchor case: every edge in the start node's history is
  // at-or-after `ref_time`, so the very first NeighborsBefore query comes
  // back empty and the walk is the bare anchor (length 1, zero RNG draws).
  // Downstream this is what routes an aggregation to the GraphSAGE-style
  // fallback; the dedicated counter makes the case observable instead of
  // blending into ordinary mid-walk early terminations.
  static Counter* const no_history_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.no_history_anchors");
  uint64_t steps_taken = 0;
  bool terminated_early = false;
  bool rejected = false;

  Walk walk;
  walk.reserve(config_.walk_length + 1);
  walk.push_back(WalkStep{start, 0.0, 0.0f});

  NodeId prev = kInvalidNode;
  NodeId current = start;
  Timestamp frontier_time = ref_time;

  std::vector<double>& prefix = PrefixScratch();
  for (int step = 0; step < config_.walk_length; ++step) {
    // Relevance constraint (Definition 2): only historical edges no newer
    // than the edge we just traversed (or the target edge, on step one).
    auto candidates = graph_->NeighborsBefore(current, frontier_time);
    if (candidates.empty()) {  // early termination (§IV.A).
      terminated_early = true;
      break;
    }

    // Inclusive prefix sums of the transition weights: prefix[i] holds
    // w_0 + ... + w_i accumulated left to right, so the final entry is the
    // same `total` the plain running sum would produce (same add order).
    prefix.resize(candidates.size());
    double total = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      total += TransitionWeight(prev, frontier_time, current, candidates[i],
                                ref_time);
      prefix[i] = total;
    }
    if (total <= 0.0) {  // all moves forbidden (e.g. p = inf dead end).
      rejected = true;
      break;
    }

    // The chosen candidate is the first i with prefix[i] >= pick (the
    // prefix array is non-decreasing, so ties on zero-weight candidates
    // resolve to the earliest index — lower_bound's first-occurrence
    // semantics). Linear scan and binary search read the same array, so
    // the selected index is identical on both sides of the degree cutoff.
    const double pick = rng->Uniform() * total;
    size_t chosen;
    if (candidates.size() <= kBinarySearchDegree) {
      chosen = candidates.size() - 1;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (prefix[i] >= pick) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<size_t>(
          std::lower_bound(prefix.begin(),
                           prefix.begin() + candidates.size(), pick) -
          prefix.begin());
      if (chosen >= candidates.size()) chosen = candidates.size() - 1;
    }

    const AdjEntry& next = candidates[chosen];
    walk.push_back(WalkStep{next.neighbor, next.time, next.weight});
    prev = current;
    current = next.neighbor;
    frontier_time = next.time;
    ++steps_taken;
  }

  walks_total->Add(1);
  steps_total->Add(steps_taken);
  if (terminated_early) early_total->Add(1);
  if (terminated_early && steps_taken == 0) no_history_total->Add(1);
  if (rejected) rejected_total->Add(1);
  return walk;
}

std::vector<Walk> TemporalWalkSampler::SampleWalks(NodeId start,
                                                   Timestamp ref_time,
                                                   Rng* rng) const {
  std::vector<Walk> walks;
  walks.reserve(config_.num_walks);
  for (int i = 0; i < config_.num_walks; ++i) {
    walks.push_back(SampleWalk(start, ref_time, rng));
  }
  return walks;
}

std::vector<std::vector<Walk>> TemporalWalkSampler::SampleWalksBatch(
    const std::vector<Anchor>& anchors, uint64_t seed,
    ThreadPool* pool) const {
  EHNA_TRACE_PHASE("walk.phase.sample_batch");
  std::vector<std::vector<Walk>> out(anchors.size());
  const auto sample_one = [&](size_t i) {
    Rng rng = Rng::Stream(seed, static_cast<uint64_t>(i));
    out[i] = SampleWalks(anchors[i].start, anchors[i].ref_time, &rng);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(anchors.size(), sample_one);
  } else {
    for (size_t i = 0; i < anchors.size(); ++i) sample_one(i);
  }
  return out;
}

}  // namespace ehna
