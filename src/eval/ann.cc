#include "eval/ann.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>

#include "nn/kernels.h"
#include "util/metrics.h"

namespace ehna {

namespace {

constexpr size_t kAssignBlockRows = 4096;

// Assignment score of a (row, centroid) pair given the raw dot product:
// for the negative-Euclidean metric, argmax_c -||a-c||^2 ==
// argmax_c (2 a.c - ||c||^2) exactly (the ||a||^2 term is constant per
// row), so cell assignment can ride on one GemmNT over the dot products.
// For dot/cosine the dot itself ranks cells (centroids are unit-normalized
// in that mode).
float AdjustedAssignScore(float dot, float centroid_sqnorm,
                          Similarity similarity) {
  if (similarity == Similarity::kNegativeEuclidean) {
    return 2.0f * dot - centroid_sqnorm;
  }
  return dot;
}

std::vector<float> CentroidSquaredNorms(const Tensor& centroids) {
  std::vector<float> out(centroids.rows());
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    const float* row = centroids.Row(c);
    double s = 0.0;
    for (int64_t j = 0; j < centroids.cols(); ++j) {
      s += static_cast<double>(row[j]) * row[j];
    }
    out[c] = static_cast<float>(s);
  }
  return out;
}

struct WorseNeighbor {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    return a.score > b.score;
  }
};

}  // namespace

Result<IvfFlatIndex> IvfFlatIndex::Build(const Tensor& embeddings,
                                         IvfFlatOptions options) {
  if (embeddings.rank() != 2) {
    return Status::InvalidArgument("embeddings must be a matrix");
  }
  const int64_t n = embeddings.rows();
  const int64_t d = embeddings.cols();
  if (n < 1 || d < 1) {
    return Status::InvalidArgument("embeddings must be non-empty");
  }
  EHNA_TRACE_PHASE("eval.phase.ann_build");

  IvfFlatIndex index;
  index.options_ = options;
  index.dim_ = d;

  size_t num_lists =
      options.num_lists > 0
          ? options.num_lists
          : static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(n))));
  num_lists = std::clamp<size_t>(num_lists, 1, static_cast<size_t>(n));
  index.nprobe_ = options.nprobe > 0 ? std::min(options.nprobe, num_lists)
                                     : std::max<size_t>(1, num_lists / 4);

  Rng rng(options.seed);

  // Centroid init: `num_lists` distinct data rows.
  index.centroids_ = Tensor(static_cast<int64_t>(num_lists), d);
  {
    const std::vector<size_t> init =
        rng.SampleWithoutReplacement(static_cast<size_t>(n), num_lists);
    for (size_t c = 0; c < num_lists; ++c) {
      kernels::Copy(embeddings.Row(static_cast<int64_t>(init[c])),
                    index.centroids_.Row(static_cast<int64_t>(c)), d);
    }
  }

  // Spherical k-means over a bounded training sample: Lloyd sweeps with the
  // assignment ridden on one GemmNT per sweep (scores[s, c] = sample . c^T).
  const size_t sample_size =
      std::min<size_t>(static_cast<size_t>(n),
                       std::max<size_t>(num_lists, options.train_sample));
  std::vector<size_t> sample_rows =
      rng.SampleWithoutReplacement(static_cast<size_t>(n), sample_size);
  Tensor sample(static_cast<int64_t>(sample_size), d);
  for (size_t i = 0; i < sample_size; ++i) {
    kernels::Copy(embeddings.Row(static_cast<int64_t>(sample_rows[i])),
                  sample.Row(static_cast<int64_t>(i)), d);
  }

  Tensor scores(static_cast<int64_t>(sample_size),
                static_cast<int64_t>(num_lists));
  Tensor sums(static_cast<int64_t>(num_lists), d);
  std::vector<int64_t> counts(num_lists);
  for (int iter = 0; iter < options.kmeans_iterations; ++iter) {
    kernels::GemmNT(static_cast<int64_t>(sample_size),
                    static_cast<int64_t>(num_lists), d, sample.data(),
                    index.centroids_.data(), scores.data(),
                    /*accumulate=*/false);
    const std::vector<float> sqnorms = CentroidSquaredNorms(index.centroids_);
    std::fill(sums.data(), sums.data() + sums.numel(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < sample_size; ++i) {
      const float* row_scores = scores.Row(static_cast<int64_t>(i));
      size_t best = 0;
      float best_score = AdjustedAssignScore(row_scores[0], sqnorms[0],
                                             options.similarity);
      for (size_t c = 1; c < num_lists; ++c) {
        const float s =
            AdjustedAssignScore(row_scores[c], sqnorms[c], options.similarity);
        if (s > best_score) {
          best_score = s;
          best = c;
        }
      }
      kernels::Axpy(d, 1.0f, sample.Row(static_cast<int64_t>(i)),
                    sums.Row(static_cast<int64_t>(best)));
      ++counts[best];
    }
    for (size_t c = 0; c < num_lists; ++c) {
      if (counts[c] == 0) continue;  // empty cell keeps its old centroid.
      float* centroid = index.centroids_.Row(static_cast<int64_t>(c));
      const float inv = 1.0f / static_cast<float>(counts[c]);
      const float* sum = sums.Row(static_cast<int64_t>(c));
      for (int64_t j = 0; j < d; ++j) centroid[j] = sum[j] * inv;
      if (options.similarity != Similarity::kNegativeEuclidean) {
        // Spherical mode: cells rank by dot, so keep centroids unit-norm.
        double norm = 0.0;
        for (int64_t j = 0; j < d; ++j) {
          norm += static_cast<double>(centroid[j]) * centroid[j];
        }
        if (norm > 1e-24) {
          const float s = 1.0f / static_cast<float>(std::sqrt(norm));
          for (int64_t j = 0; j < d; ++j) centroid[j] *= s;
        }
      }
    }
  }

  // Final assignment pass over every row, blocked so the score scratch
  // stays at kAssignBlockRows x num_lists.
  index.list_ids_.resize(num_lists);
  index.list_data_.resize(num_lists);
  index.loc_.assign(static_cast<size_t>(n), {kInvalidList, 0});
  const std::vector<float> sqnorms = CentroidSquaredNorms(index.centroids_);
  Tensor block_scores(static_cast<int64_t>(kAssignBlockRows),
                      static_cast<int64_t>(num_lists));
  for (int64_t base = 0; base < n; base += kAssignBlockRows) {
    const int64_t rows = std::min<int64_t>(kAssignBlockRows, n - base);
    kernels::GemmNT(rows, static_cast<int64_t>(num_lists), d,
                    embeddings.Row(base), index.centroids_.data(),
                    block_scores.data(), /*accumulate=*/false);
    for (int64_t i = 0; i < rows; ++i) {
      const float* row_scores = block_scores.Row(i);
      size_t best = 0;
      float best_score = AdjustedAssignScore(row_scores[0], sqnorms[0],
                                             options.similarity);
      for (size_t c = 1; c < num_lists; ++c) {
        const float s =
            AdjustedAssignScore(row_scores[c], sqnorms[c], options.similarity);
        if (s > best_score) {
          best_score = s;
          best = c;
        }
      }
      const NodeId id = static_cast<NodeId>(base + i);
      index.loc_[id] = {static_cast<uint32_t>(best),
                        static_cast<uint32_t>(index.list_ids_[best].size())};
      index.list_ids_[best].push_back(id);
      const float* row = embeddings.Row(base + i);
      index.list_data_[best].insert(index.list_data_[best].end(), row,
                                    row + d);
    }
  }
  index.size_ = static_cast<size_t>(n);
  return index;
}

size_t IvfFlatIndex::AssignCell(const float* v) const {
  size_t best = 0;
  double best_score = SimilarityScore(v, centroids_.Row(0), dim_,
                                      options_.similarity);
  for (int64_t c = 1; c < centroids_.rows(); ++c) {
    const double s =
        SimilarityScore(v, centroids_.Row(c), dim_, options_.similarity);
    if (s > best_score) {
      best_score = s;
      best = static_cast<size_t>(c);
    }
  }
  return best;
}

std::vector<Neighbor> IvfFlatIndex::Query(const float* query, size_t k,
                                          int64_t exclude,
                                          size_t nprobe) const {
  if (k == 0) return {};
  EHNA_TRACE_PHASE("eval.phase.ann_query");
  const size_t lists = num_lists();
  const size_t probes = std::min(nprobe > 0 ? nprobe : nprobe_, lists);

  // Rank cells by centroid score and take the best `probes`.
  std::vector<std::pair<double, size_t>> cell_scores;
  cell_scores.reserve(lists);
  for (size_t c = 0; c < lists; ++c) {
    cell_scores.emplace_back(
        SimilarityScore(query, centroids_.Row(static_cast<int64_t>(c)), dim_,
                        options_.similarity),
        c);
  }
  std::partial_sort(cell_scores.begin(), cell_scores.begin() + probes,
                    cell_scores.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });

  // Exact-scan semantics within the probed cells: same score function, same
  // min-heap replacement rule as TopKNeighbors.
  std::priority_queue<Neighbor, std::vector<Neighbor>, WorseNeighbor> heap;
  for (size_t p = 0; p < probes; ++p) {
    const size_t c = cell_scores[p].second;
    const std::vector<NodeId>& ids = list_ids_[c];
    const float* data = list_data_[c].data();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (static_cast<int64_t>(ids[i]) == exclude) continue;
      const double s = SimilarityScore(query, data + i * dim_, dim_,
                                       options_.similarity);
      if (heap.size() < k) {
        heap.push(Neighbor{ids[i], s});
      } else if (s > heap.top().score) {
        heap.pop();
        heap.push(Neighbor{ids[i], s});
      }
    }
  }
  std::vector<Neighbor> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Neighbor> IvfFlatIndex::QueryQuantized(const QuantizedMatrix& quant,
                                                   const float* query, size_t k,
                                                   int64_t exclude,
                                                   size_t nprobe,
                                                   size_t rerank_factor) const {
  if (k == 0) return {};
  EHNA_TRACE_PHASE("eval.phase.ann_query_quantized");
  const size_t lists = num_lists();
  const size_t probes = std::min(nprobe > 0 ? nprobe : nprobe_, lists);

  // Probe selection is unchanged from Query: fp32 centroid scores.
  std::vector<std::pair<double, size_t>> cell_scores;
  cell_scores.reserve(lists);
  for (size_t c = 0; c < lists; ++c) {
    cell_scores.emplace_back(
        SimilarityScore(query, centroids_.Row(static_cast<int64_t>(c)), dim_,
                        options_.similarity),
        c);
  }
  std::partial_sort(cell_scores.begin(), cell_scores.begin() + probes,
                    cell_scores.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });

  // Quantized candidate pass: keep the best rerank_factor*k survivors under
  // the cheap score, same heap-replacement rule as the fp32 scan.
  const size_t survivors = std::max<size_t>(rerank_factor, 1) * k;
  QuantizedScorer scorer(&quant, query, options_.similarity);
  const int64_t quant_rows = quant.rows();
  std::priority_queue<Neighbor, std::vector<Neighbor>, WorseNeighbor> heap;
  for (size_t p = 0; p < probes; ++p) {
    const size_t c = cell_scores[p].second;
    const std::vector<NodeId>& ids = list_ids_[c];
    const float* data = list_data_[c].data();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (static_cast<int64_t>(ids[i]) == exclude) continue;
      const double s =
          static_cast<int64_t>(ids[i]) < quant_rows
              ? scorer.Score(static_cast<int64_t>(ids[i]))
              : SimilarityScore(query, data + i * dim_, dim_,
                                options_.similarity);
      if (heap.size() < survivors) {
        heap.push(Neighbor{ids[i], s});
      } else if (s > heap.top().score) {
        heap.pop();
        heap.push(Neighbor{ids[i], s});
      }
    }
  }

  // fp32 re-rank over the indexed vectors (same bytes as the serving rows),
  // ties toward the lower id for determinism.
  std::vector<Neighbor> cand;
  cand.reserve(heap.size());
  while (!heap.empty()) {
    cand.push_back(heap.top());
    heap.pop();
  }
  for (Neighbor& nb : cand) {
    nb.score =
        SimilarityScore(query, VectorOf(nb.node), dim_, options_.similarity);
  }
  std::sort(cand.begin(), cand.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  });
  if (cand.size() > k) cand.resize(k);
  return cand;
}

Result<std::vector<Neighbor>> IvfFlatIndex::QueryNodeQuantized(
    const QuantizedMatrix& quant, NodeId node, size_t k, size_t nprobe,
    size_t rerank_factor) const {
  const float* vec = VectorOf(node);
  if (vec == nullptr) {
    return Status::OutOfRange("node " + std::to_string(node) +
                              " not in ANN index");
  }
  return QueryQuantized(quant, vec, k, static_cast<int64_t>(node), nprobe,
                        rerank_factor);
}

Result<std::vector<Neighbor>> IvfFlatIndex::QueryNode(NodeId node, size_t k,
                                                      size_t nprobe) const {
  const float* vec = VectorOf(node);
  if (vec == nullptr) {
    return Status::OutOfRange("node " + std::to_string(node) +
                              " not in ANN index");
  }
  return Query(vec, k, static_cast<int64_t>(node), nprobe);
}

const float* IvfFlatIndex::VectorOf(NodeId id) const {
  if (id >= loc_.size()) return nullptr;
  const auto [list, pos] = loc_[id];
  if (list == kInvalidList) return nullptr;
  return list_data_[list].data() + static_cast<size_t>(pos) * dim_;
}

void IvfFlatIndex::Update(NodeId id, const float* vec, size_t target) {
  EHNA_CHECK_LT(target, num_lists());
  if (id >= loc_.size()) loc_.resize(id + 1, {kInvalidList, 0});
  const auto [old_list, old_pos] = loc_[id];

  if (old_list != kInvalidList) {
    if (old_list == target) {
      kernels::Copy(vec, list_data_[old_list].data() +
                             static_cast<size_t>(old_pos) * dim_,
                    dim_);
      return;
    }
    // Swap-remove from the old cell, keeping its storage contiguous.
    std::vector<NodeId>& ids = list_ids_[old_list];
    std::vector<float>& data = list_data_[old_list];
    const size_t last = ids.size() - 1;
    if (old_pos != last) {
      ids[old_pos] = ids[last];
      kernels::Copy(data.data() + last * dim_,
                    data.data() + static_cast<size_t>(old_pos) * dim_, dim_);
      loc_[ids[old_pos]].second = old_pos;
    }
    ids.pop_back();
    data.resize(data.size() - dim_);
  } else {
    ++size_;
  }

  loc_[id] = {static_cast<uint32_t>(target),
              static_cast<uint32_t>(list_ids_[target].size())};
  list_ids_[target].push_back(id);
  list_data_[target].insert(list_data_[target].end(), vec, vec + dim_);
}

}  // namespace ehna
