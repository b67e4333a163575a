#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/model.h"
#include "graph/generators/generators.h"

namespace ehna {
namespace {

TemporalGraph TinyGraph() {
  auto g = MakePaperDataset(PaperDataset::kDblp, 0.03, 9);
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

EhnaConfig TinyConfig() {
  EhnaConfig cfg;
  cfg.dim = 8;
  cfg.num_walks = 3;
  cfg.walk_length = 4;
  cfg.num_negatives = 1;
  cfg.batch_edges = 8;
  cfg.epochs = 1;
  cfg.max_edges_per_epoch = 60;
  cfg.learning_rate = 5e-3f;
  cfg.seed = 2;
  return cfg;
}

TEST(EhnaModelTest, EdgeLossIsFiniteAndNonNegative) {
  TemporalGraph g = TinyGraph();
  EhnaModel model(&g, TinyConfig());
  const TemporalEdge& e = g.edges().back();
  Var loss = model.EdgeLoss(e, /*training=*/true);
  ASSERT_EQ(loss.value().numel(), 1);
  EXPECT_GE(loss.value()[0], 0.0f);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  model.embedding()->ClearGradients();
}

TEST(EhnaModelTest, BidirectionalDoublesNegativeTerms) {
  TemporalGraph g = TinyGraph();
  EhnaConfig cfg = TinyConfig();
  cfg.bidirectional_negatives = true;
  EhnaModel model(&g, cfg);
  Var loss = model.EdgeLoss(g.edges().back(), true);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  model.embedding()->ClearGradients();
}

TEST(EhnaModelTest, TrainEpochReturnsStats) {
  TemporalGraph g = TinyGraph();
  EhnaModel model(&g, TinyConfig());
  auto stats = model.TrainEpoch();
  EXPECT_EQ(stats.edges, 60u);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_TRUE(std::isfinite(stats.avg_loss));
}

TEST(EhnaModelTest, TrainingReducesLoss) {
  TemporalGraph g = TinyGraph();
  EhnaConfig cfg = TinyConfig();
  cfg.max_edges_per_epoch = 120;
  EhnaModel model(&g, cfg);
  const double first = model.TrainEpoch().avg_loss;
  double last = first;
  for (int e = 0; e < 4; ++e) last = model.TrainEpoch().avg_loss;
  EXPECT_LT(last, first);
}

TEST(EhnaModelDeathTest, TrainRefusesNegativeEpochs) {
  // A negative count must not wrap to ~2^64 epochs (and a history.reserve
  // of that size); the refusal names the field.
  TemporalGraph g = TinyGraph();
  EhnaConfig cfg = TinyConfig();
  cfg.epochs = -3;
  EhnaModel model(&g, cfg);
  EXPECT_DEATH(model.Train(), "EhnaConfig::epochs must be non-negative");
}

TEST(EhnaModelTest, TrainRunsRequestedEpochsWithProgress) {
  TemporalGraph g = TinyGraph();
  EhnaModel model(&g, TinyConfig());
  int calls = 0;
  auto history = model.Train(2, [&](int, const EhnaModel::EpochStats&) {
    ++calls;
  });
  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(calls, 2);
}

TEST(EhnaModelTest, FinalizeEmbeddingsShapeAndNorms) {
  TemporalGraph g = TinyGraph();
  EhnaModel model(&g, TinyConfig());
  model.TrainEpoch();
  Tensor final = model.FinalizeEmbeddings();
  EXPECT_EQ(final.rows(), static_cast<int64_t>(g.num_nodes()));
  EXPECT_EQ(final.cols(), 8);
  for (int64_t v = 0; v < final.rows(); ++v) {
    double norm = 0.0;
    for (int64_t j = 0; j < final.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(final.at(v, j)));
      norm += static_cast<double>(final.at(v, j)) * final.at(v, j);
    }
    // Aggregated embeddings are L2-normalized; isolated nodes may be zero
    // only if their raw embedding was zero (never, given the init).
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-3);
  }
  // Table rows were overwritten with the final embeddings.
  for (int64_t j = 0; j < final.cols(); ++j) {
    EXPECT_FLOAT_EQ(model.embedding_table().at(0, j), final.at(0, j));
  }
}

TEST(EhnaModelTest, AggregateAtProducesNormalizedVector) {
  TemporalGraph g = TinyGraph();
  EhnaModel model(&g, TinyConfig());
  Tensor z = model.AggregateAt(0, g.max_time() + 1.0);
  EXPECT_EQ(z.numel(), 8);
  EXPECT_NEAR(z.Norm(), 1.0f, 1e-4f);
}

TEST(EhnaModelTest, AllVariantsTrainOneEpoch) {
  TemporalGraph g = TinyGraph();
  for (EhnaVariant variant :
       {EhnaVariant::kNoAttention, EhnaVariant::kStaticWalk,
        EhnaVariant::kSingleLayer}) {
    EhnaConfig cfg = TinyConfig();
    cfg.variant = variant;
    cfg.max_edges_per_epoch = 30;
    EhnaModel model(&g, cfg);
    auto stats = model.TrainEpoch();
    EXPECT_TRUE(std::isfinite(stats.avg_loss)) << EhnaVariantName(variant);
  }
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// With no negatives no edge yields a hinge term, so no batch has a loss:
// the epoch counts no edges, takes no optimizer step and merges no
// BatchNorm statistics, at one thread and at four.
TEST(EhnaModelTest, EpochWithoutLossTermsChangesNothing) {
  TemporalGraph g = TinyGraph();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + "T");
    EhnaConfig cfg = TinyConfig();
    cfg.num_negatives = 0;
    cfg.max_edges_per_epoch = 64;
    cfg.batch_edges = 8;
    cfg.num_threads = threads;
    EhnaModel model(&g, cfg);
    std::vector<Tensor> params;
    for (const Var& p : model.optimizer().params()) {
      params.push_back(p.value());
    }
    std::vector<Tensor> bn_stats;
    std::vector<bool> bn_initialized;
    for (const BatchNorm1d* bn : model.aggregator()->MutableBatchNorms()) {
      bn_stats.push_back(bn->running_mean());
      bn_stats.push_back(bn->running_var());
      bn_initialized.push_back(bn->stats_initialized());
    }
    const Tensor table = model.embedding_table();

    const EhnaModel::EpochStats stats = model.TrainEpoch();
    EXPECT_EQ(stats.edges, 0u);
    EXPECT_EQ(stats.avg_loss, 0.0);
    EXPECT_EQ(model.optimizer().step_count(), 0);
    const std::vector<Var>& after = model.optimizer().params();
    ASSERT_EQ(after.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(SameBytes(after[i].value(), params[i])) << "param " << i;
    }
    const auto bns = model.aggregator()->MutableBatchNorms();
    for (size_t b = 0; b < bns.size(); ++b) {
      EXPECT_EQ(bns[b]->stats_initialized(), bn_initialized[b]) << "bn " << b;
      EXPECT_TRUE(SameBytes(bns[b]->running_mean(), bn_stats[2 * b]));
      EXPECT_TRUE(SameBytes(bns[b]->running_var(), bn_stats[2 * b + 1]));
    }
    EXPECT_TRUE(SameBytes(model.embedding_table(), table));
  }
}

}  // namespace
}  // namespace ehna
