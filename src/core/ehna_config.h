#ifndef EHNA_CORE_EHNA_CONFIG_H_
#define EHNA_CORE_EHNA_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

namespace ehna {

/// Model variants evaluated in the paper's ablation study (Table VII).
enum class EhnaVariant {
  /// The complete model: temporal walks, two-level aggregation, attention.
  kFull,
  /// EHNA-NA: no attention mechanisms (alpha = beta = uniform).
  kNoAttention,
  /// EHNA-RW: traditional (static, non-temporal) random walks and no
  /// attention.
  kStaticWalk,
  /// EHNA-SL: a single-layer LSTM over the flattened walk sequence, without
  /// the two-level aggregation strategy.
  kSingleLayer,
};

const char* EhnaVariantName(EhnaVariant v);

/// Hyperparameters of the EHNA model and trainer. Defaults follow §V.C of
/// the paper where stated (k = 10, l = 10, margin = 5, 2 LSTM layers,
/// Q = 5 negative samples); deviations are noted inline.
struct EhnaConfig {
  EhnaVariant variant = EhnaVariant::kFull;

  /// Embedding dimensionality d (also the LSTM hidden size, which Eq. 4's
  /// ||e_x - h_r||^2 requires to match d). Paper: 128.
  int64_t dim = 128;

  /// Temporal random walk parameters (§IV.A).
  int num_walks = 10;   // k
  int walk_length = 10; // l
  double p = 1.0;
  double q = 1.0;
  /// Kernel decay rate in normalized-time units (see TemporalWalkConfig).
  double decay_rate = 5.0;

  /// Stacked LSTM depth (paper: 2).
  int lstm_layers = 2;

  /// Objective (Eq. 6-7).
  float margin = 5.0f;
  int num_negatives = 5;  // Q
  /// Enable Eq. 7's bidirectional negative sampling (recommended for
  /// bipartite/heterogeneous networks such as Tmall).
  bool bidirectional_negatives = false;

  /// Optimization. The paper uses mini-batch SGD with batch 512; we default
  /// to Adam with a smaller per-step edge batch, which converges in far
  /// fewer epochs at these scales (documented deviation).
  float learning_rate = 2e-3f;
  int batch_edges = 32;
  int epochs = 3;
  /// Cap on (randomly sampled) training edges per epoch; 0 = all edges.
  size_t max_edges_per_epoch = 0;
  float grad_clip = 5.0f;
  /// The sparse embedding rows see far fewer updates per epoch than the
  /// shared network weights; scaling their Adam step compensates. 1.0
  /// recovers a single global rate.
  float embedding_lr_multiplier = 1.0f;
  /// When true, the aggregator's BatchNorms normalize with population
  /// (running) statistics instead of the per-call batch of one target's k
  /// walks. The paper's BN runs over 512-edge batches; per-target batch
  /// statistics would subtract the node-identifying component shared by a
  /// target's walks. See DESIGN.md §2.
  bool population_batchnorm = false;

  /// GraphSAGE-style fallback (§IV.D) for nodes without a historical
  /// neighborhood: number of neighbors sampled per hop.
  int fallback_samples = 10;

  /// Worker threads for training and inference; 0 resolves to the hardware
  /// concurrency (see ResolvedNumThreads). Training runs one data-parallel
  /// loop at every count (per-worker tapes, gradients reduced into one
  /// optimizer step; 1 is one shard) with a per-edge RNG stream, so it is
  /// reproducible per (seed, num_threads). Inference uses per-node streams
  /// and gives the same bytes at every count. See README "Parallelism &
  /// determinism".
  int num_threads = 1;

  /// Crash-safe checkpointing (see DESIGN.md §7 and README "Checkpointing
  /// & resume"). When `checkpoint_dir` is non-empty, Train() snapshots the
  /// complete training state (parameters, embedding table, dense and sparse
  /// Adam moments, BatchNorm running statistics, RNG stream state) into the
  /// directory every `checkpoint_every` completed epochs, atomically, with
  /// keep-last-N rotation and a last-good pointer file. A run restored from
  /// such a snapshot continues bitwise-identically to one that never died.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep = 3;

  uint64_t seed = 1;
};

/// The worker count training and inference run with: `config.num_threads`,
/// with 0 mapped to the hardware concurrency (at least 1).
inline int ResolvedNumThreads(const EhnaConfig& config) {
  if (config.num_threads > 0) return config.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace ehna

#endif  // EHNA_CORE_EHNA_CONFIG_H_
