#ifndef EHNA_EVAL_ANN_H_
#define EHNA_EVAL_ANN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "eval/knn.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace ehna {

/// Tuning knobs for the IVF-flat index.
struct IvfFlatOptions {
  /// Number of inverted lists (k-means cells). 0 picks round(sqrt(N))
  /// clamped to [1, N] — the standard IVF sizing, balancing the centroid
  /// scan against per-list length.
  size_t num_lists = 0;
  /// Lists probed per query. 0 picks max(1, num_lists / 4); raise toward
  /// num_lists for higher recall (== num_lists degenerates to the exact
  /// scan plus centroid overhead). Callers can also override per query.
  size_t nprobe = 0;
  /// Spherical k-means refinement sweeps over the training sample.
  int kmeans_iterations = 4;
  /// Rows the k-means trains on (uniform sample without replacement when N
  /// exceeds it); the final assignment pass always covers every row.
  size_t train_sample = 65536;
  /// Score used for both probe selection and candidate ranking. Defaults to
  /// the metric EHNA optimizes; candidate scores are computed with
  /// SimilarityScore, bit-identical to the exact scan's.
  Similarity similarity = Similarity::kNegativeEuclidean;
  uint64_t seed = 0x45484E41414E4E00ULL;  // "EHNAANN"
};

/// An IVF-flat approximate-nearest-neighbor index over an embedding matrix:
/// spherical k-means partitions the vectors into `num_lists` cells, each
/// cell storing its member ids and vector rows contiguously; a query scores
/// the `nprobe` nearest cell centroids and scans only those cells, cutting
/// the exact scan's O(N·d) to roughly O((num_lists + N·nprobe/num_lists)·d)
/// — a ~num_lists/nprobe speedup at the cost of missing neighbors that fell
/// into unprobed cells. Built for the serving layer's unit-norm final
/// embeddings (DESIGN.md §13); eval/knn.h's exact scan is the recall
/// oracle (recall@10 ≥ 0.95 pinned by tests/serve_test.cc).
///
/// Mutation (`Update`) supports the serving layer's incremental refresh:
/// re-assigning a changed vector is an O(num_lists·d) centroid scan plus an
/// O(1) swap-remove/append; centroids are never re-trained online (cell
/// quality degrades only as far as the embedding distribution drifts, at
/// which point the server rebuilds the index).
///
/// Not internally synchronized: concurrent const calls (queries,
/// AssignCell) are safe against each other but not against Update. The
/// serving layer computes cells under its writer mutex alone and takes its
/// reader/writer lock exclusively only for the Update calls (DESIGN.md §13).
class IvfFlatIndex {
 public:
  /// Builds an index over the rows of `embeddings` ([N, dim], N >= 1).
  static Result<IvfFlatIndex> Build(const Tensor& embeddings,
                                    IvfFlatOptions options = {});

  int64_t dim() const { return dim_; }
  /// Indexed vectors (grows via Update upserts).
  size_t size() const { return size_; }
  size_t num_lists() const { return static_cast<size_t>(centroids_.rows()); }
  /// The nprobe used when a query passes 0.
  size_t default_nprobe() const { return nprobe_; }

  /// Top-k scan of the `nprobe` (0 = default_nprobe()) cells nearest to
  /// `query` (length dim). `exclude` drops one id from the candidates (pass
  /// the query's own id for neighbor semantics matching TopKNeighbors).
  /// Results sorted by descending score.
  std::vector<Neighbor> Query(const float* query, size_t k,
                              int64_t exclude = -1, size_t nprobe = 0) const;

  /// Query by indexed id, excluding the id itself — the ANN counterpart of
  /// TopKNeighbors(embeddings, node, k, similarity). OutOfRange for ids not
  /// in the index.
  Result<std::vector<Neighbor>> QueryNode(NodeId node, size_t k,
                                          size_t nprobe = 0) const;

  /// Quantized candidate scoring over the probed cells (DESIGN.md §14):
  /// centroid ranking stays fp32, candidates in the probed cells are scored
  /// through `quant` (which must mirror the indexed matrix row-for-row by
  /// id), the top `rerank_factor * k` survivors are re-scored with the
  /// exact fp32 SimilarityScore over the indexed vectors, and the best k
  /// are returned with those exact scores. Ids the mirror does not cover
  /// yet are scored in fp32 directly (never silently dropped).
  std::vector<Neighbor> QueryQuantized(const QuantizedMatrix& quant,
                                       const float* query, size_t k,
                                       int64_t exclude = -1, size_t nprobe = 0,
                                       size_t rerank_factor = 4) const;

  /// QueryNode through the quantized path.
  Result<std::vector<Neighbor>> QueryNodeQuantized(
      const QuantizedMatrix& quant, NodeId node, size_t k, size_t nprobe = 0,
      size_t rerank_factor = 4) const;

  /// The cell `vec` (length dim) belongs to: the nearest centroid under the
  /// configured similarity. Pure and const (centroids never change after
  /// Build), so it may run beside queries and outside any lock an Update
  /// needs.
  size_t AssignCell(const float* vec) const;

  /// Upserts `vec` (length dim) as id `id` into `cell`, which must be
  /// AssignCell(vec), moving it between lists if needed. New ids append
  /// (the id space may be sparse; absent ids cost one slot in the
  /// id->location table).
  void Update(NodeId id, const float* vec, size_t cell);

  /// The indexed vector for `id` (nullptr when absent). Valid until the
  /// next Update touching its cell.
  const float* VectorOf(NodeId id) const;

 private:
  IvfFlatIndex() = default;

  IvfFlatOptions options_;
  int64_t dim_ = 0;
  size_t size_ = 0;
  size_t nprobe_ = 1;
  Tensor centroids_;  // [num_lists, dim]
  std::vector<std::vector<NodeId>> list_ids_;
  std::vector<std::vector<float>> list_data_;  // parallel, row-contiguous.
  /// id -> (list, position); kInvalidList marks absent ids.
  static constexpr uint32_t kInvalidList = 0xFFFFFFFFu;
  std::vector<std::pair<uint32_t, uint32_t>> loc_;
};

}  // namespace ehna

#endif  // EHNA_EVAL_ANN_H_
