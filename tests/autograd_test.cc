#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "nn/autograd.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace ehna {
namespace {

/// Checks d(loss)/d(leaf) against central finite differences for every
/// element of every leaf. `build` must construct a scalar loss from the
/// given leaves (freshly, on each call).
void CheckGradients(std::vector<Var> leaves,
                    const std::function<Var(const std::vector<Var>&)>& build,
                    float eps = 1e-3f, float tol = 2e-2f) {
  Var loss = build(leaves);
  ASSERT_EQ(loss.value().numel(), 1);
  Backward(loss);

  for (size_t li = 0; li < leaves.size(); ++li) {
    Var& leaf = leaves[li];
    const Tensor analytic = leaf.grad().numel() == 0
                                ? Tensor()  // no gradient flowed.
                                : leaf.grad();
    for (int64_t i = 0; i < leaf.value().numel(); ++i) {
      const float orig = leaf.value().data()[i];
      leaf.mutable_value().data()[i] = orig + eps;
      const float up = build(leaves).value()[0];
      leaf.mutable_value().data()[i] = orig - eps;
      const float down = build(leaves).value()[0];
      leaf.mutable_value().data()[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float got = analytic.numel() == 0 ? 0.0f : analytic.data()[i];
      EXPECT_NEAR(got, numeric, tol + 0.05f * std::abs(numeric))
          << "leaf " << li << " element " << i;
    }
  }
}

Var RandomLeaf(int64_t n, Rng* rng) {
  Tensor t(n);
  UniformInit(&t, -1.0f, 1.0f, rng);
  return Var::Leaf(std::move(t), true);
}

Var RandomLeaf(int64_t r, int64_t c, Rng* rng) {
  Tensor t(r, c);
  UniformInit(&t, -1.0f, 1.0f, rng);
  return Var::Leaf(std::move(t), true);
}

// ------------------------------------------------------------ Mechanics

TEST(AutogradTest, LeafHoldsValue) {
  Var v = Var::Leaf(Tensor::FromVector({1, 2}));
  EXPECT_FALSE(v.requires_grad());
  EXPECT_FLOAT_EQ(v.value()[1], 2.0f);
}

TEST(AutogradTest, BackwardSeedsScalarOne) {
  Var x = Var::Leaf(Tensor::FromVector({3.0f}), true);
  Var y = ag::ScalarMul(x, 2.0f);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Var y = ag::Add(x, x);  // dy/dx = 2.
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(AutogradTest, ZeroGradClears) {
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Backward(ag::ScalarMul(x, 3.0f));
  EXPECT_EQ(x.grad().numel(), 1);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().numel(), 0);
}

TEST(AutogradTest, NoGradForConstantSubtree) {
  Var c = Var::Leaf(Tensor::FromVector({5.0f}), false);
  Var x = Var::Leaf(Tensor::FromVector({2.0f}), true);
  Var y = ag::Add(ag::ScalarMul(c, 2.0f), x);
  Backward(y);
  EXPECT_EQ(c.grad().numel(), 0);  // backward skipped for constants.
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

TEST(AutogradTest, DiamondGraphCorrectGradient) {
  // y = x*x + x  =>  dy/dx = 2x + 1.
  Var x = Var::Leaf(Tensor::FromVector({3.0f}), true);
  Var y = ag::Add(ag::Mul(x, x), x);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(AutogradTest, RepeatedBackwardAccumulates) {
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Backward(ag::ScalarMul(x, 2.0f));
  Backward(ag::ScalarMul(x, 3.0f));
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

// ------------------------------------------------------- NoTapeScope

/// A small multi-op forward (MatMul, broadcast, gates, row ops, reductions)
/// over fixed inputs; returns every intermediate so tests can inspect them.
std::vector<Var> ForwardChain() {
  Rng rng(5);
  Tensor xt(3, 4), wt(4, 5), bt(5);
  UniformInit(&xt, -1.0f, 1.0f, &rng);
  UniformInit(&wt, -1.0f, 1.0f, &rng);
  UniformInit(&bt, -1.0f, 1.0f, &rng);
  Var x = Var::Leaf(xt, true);
  Var w = Var::Leaf(wt, true);
  Var b = Var::Leaf(bt, true);
  Var h = ag::AddRowBroadcast(ag::MatMul(x, w), b);
  Var g = ag::Mul(ag::Sigmoid(h), ag::Tanh(h));
  Var r = ag::ConcatRows({ag::Row(g, 2), ag::Row(g, 0)});
  Var loss = ag::Add(ag::SumSquares(r), ag::Mean(ag::Relu(g)));
  return {x, w, b, h, g, r, loss};
}

TEST(NoTapeScopeTest, ValuesBitwiseEqualWithAndWithoutTape) {
  const std::vector<Var> taped = ForwardChain();
  std::vector<Var> untaped;
  {
    NoTapeScope no_tape;
    untaped = ForwardChain();
  }
  ASSERT_EQ(taped.size(), untaped.size());
  for (size_t i = 0; i < taped.size(); ++i) {
    const Tensor& a = taped[i].value();
    const Tensor& b = untaped[i].value();
    ASSERT_EQ(a.numel(), b.numel()) << "node " << i;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0)
        << "node " << i;
  }
}

TEST(NoTapeScopeTest, OpsRecordNoParentsOrBackward) {
  std::vector<Var> nodes;
  {
    NoTapeScope no_tape;
    nodes = ForwardChain();
  }
  for (size_t i = 3; i < nodes.size(); ++i) {  // skip the three leaves.
    EXPECT_TRUE(nodes[i].impl()->parents.empty()) << nodes[i].name();
    EXPECT_FALSE(static_cast<bool>(nodes[i].impl()->backward))
        << nodes[i].name();
  }
  // With nothing recorded, Backward reaches no leaf.
  Backward(nodes.back());
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(nodes[i].grad().numel(), 0);

  // Outside the scope the same chain records a tape again.
  const std::vector<Var> taped = ForwardChain();
  EXPECT_FALSE(taped.back().impl()->parents.empty());
  Backward(taped.back());
  EXPECT_GT(taped[0].grad().numel(), 0);
}

TEST(NoTapeScopeTest, NestedScopesRestorePreviousState) {
  EXPECT_FALSE(NoTapeScope::active());
  {
    NoTapeScope outer;
    EXPECT_TRUE(NoTapeScope::active());
    {
      NoTapeScope inner;
      EXPECT_TRUE(NoTapeScope::active());
    }
    EXPECT_TRUE(NoTapeScope::active());  // inner exit keeps outer's state.
    Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
    EXPECT_TRUE(ag::ScalarMul(x, 2.0f).impl()->parents.empty());
  }
  EXPECT_FALSE(NoTapeScope::active());
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  EXPECT_EQ(ag::ScalarMul(x, 2.0f).impl()->parents.size(), 1u);
}

TEST(NoTapeScopeTest, ScopeIsThreadLocal) {
  NoTapeScope no_tape;
  bool other_active = true;
  size_t other_parents = 0;
  float other_grad = 0.0f;
  std::thread other([&] {
    other_active = NoTapeScope::active();
    Var x = Var::Leaf(Tensor::FromVector({1.5f}), true);
    Var y = ag::ScalarMul(x, 4.0f);
    other_parents = y.impl()->parents.size();
    Backward(y);
    other_grad = x.grad()[0];
  });
  other.join();
  EXPECT_FALSE(other_active);
  EXPECT_EQ(other_parents, 1u);
  EXPECT_EQ(other_grad, 4.0f);
  // This thread is still inside its scope.
  EXPECT_TRUE(NoTapeScope::active());
}

// ------------------------------------------------- Finite-diff checks

TEST(GradCheckTest, AddSubMul) {
  Rng rng(1);
  CheckGradients({RandomLeaf(5, &rng), RandomLeaf(5, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::Mul(ag::Add(v[0], v[1]),
                                          ag::Sub(v[0], v[1])));
                 });
}

TEST(GradCheckTest, MatMul) {
  Rng rng(2);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, 2, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::MatMul(v[0], v[1]));
                 });
}

TEST(GradCheckTest, MatVec) {
  Rng rng(3);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::MatVec(v[0], v[1]));
                 });
}

TEST(GradCheckTest, RowBroadcastOps) {
  Rng rng(4);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::Mul(ag::AddRowBroadcast(v[0], v[1]),
                                          ag::SubRowBroadcast(v[0], v[1])));
                 });
}

TEST(GradCheckTest, Activations) {
  Rng rng(5);
  CheckGradients({RandomLeaf(6, &rng)}, [](const std::vector<Var>& v) {
    return ag::Sum(
        ag::Add(ag::Sigmoid(v[0]), ag::Add(ag::Tanh(v[0]), ag::Relu(v[0]))));
  });
}

TEST(GradCheckTest, ExpAndLog) {
  Rng rng(6);
  // Keep log inputs positive via exp.
  CheckGradients({RandomLeaf(5, &rng)}, [](const std::vector<Var>& v) {
    return ag::Sum(ag::Log(ag::AddScalar(ag::Exp(v[0]), 1.0f)));
  });
}

TEST(GradCheckTest, LogSigmoid) {
  Rng rng(7);
  CheckGradients({RandomLeaf(5, &rng)}, [](const std::vector<Var>& v) {
    return ag::Sum(ag::LogSigmoid(ag::ScalarMul(v[0], 3.0f)));
  });
}

TEST(GradCheckTest, SoftmaxWeightedSum) {
  Rng rng(8);
  CheckGradients({RandomLeaf(5, &rng), RandomLeaf(5, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Dot(ag::Softmax(v[0]), v[1]);
                 });
}

TEST(GradCheckTest, SumSquaresAndRowSumSquares) {
  Rng rng(9);
  CheckGradients({RandomLeaf(3, 4, &rng)}, [](const std::vector<Var>& v) {
    return ag::Add(ag::Sum(ag::RowSumSquares(v[0])),
                   ag::ScalarMul(ag::SumSquares(v[0]), 0.5f));
  });
}

TEST(GradCheckTest, MeanAndAddScalar) {
  Rng rng(10);
  CheckGradients({RandomLeaf(7, &rng)}, [](const std::vector<Var>& v) {
    return ag::Mean(ag::AddScalar(v[0], 2.5f));
  });
}

TEST(GradCheckTest, RowAndConcatRows) {
  Rng rng(11);
  CheckGradients({RandomLeaf(3, 4, &rng)}, [](const std::vector<Var>& v) {
    std::vector<Var> rows{ag::Row(v[0], 2), ag::Row(v[0], 0),
                          ag::Row(v[0], 1)};
    return ag::SumSquares(ag::ConcatRows(rows));
  });
}

TEST(GradCheckTest, ConcatVectors) {
  Rng rng(12);
  CheckGradients({RandomLeaf(3, &rng), RandomLeaf(4, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::SumSquares(ag::Concat(v[0], v[1]));
                 });
}

TEST(GradCheckTest, SliceCols) {
  Rng rng(13);
  CheckGradients({RandomLeaf(3, 6, &rng)}, [](const std::vector<Var>& v) {
    return ag::Add(ag::Sum(ag::SliceCols(v[0], 0, 2)),
                   ag::SumSquares(ag::SliceCols(v[0], 3, 3)));
  });
}

TEST(GradCheckTest, ScaleRows) {
  Rng rng(14);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(3, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::SumSquares(ag::ScaleRows(v[0], v[1]));
                 });
}

TEST(GradCheckTest, ScaleRowsConstAndMulConst) {
  Rng rng(15);
  Tensor scale = Tensor::FromVector({0.5f, 2.0f, -1.0f});
  Tensor cmat = Tensor::FromVector({1.0f, -2.0f, 0.5f, 3.0f});
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, &rng)},
                 [scale, cmat](const std::vector<Var>& v) {
                   return ag::Add(
                       ag::Sum(ag::ScaleRowsConst(v[0], scale)),
                       ag::Sum(ag::MulConst(v[1], cmat)));
                 });
}

TEST(GradCheckTest, MaskRows) {
  Rng rng(16);
  Tensor mask = Tensor::FromVector({1.0f, 0.0f, 1.0f});
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(3, 4, &rng)},
                 [mask](const std::vector<Var>& v) {
                   return ag::SumSquares(ag::MaskRows(v[0], v[1], mask));
                 });
}

TEST(GradCheckTest, L2Normalize) {
  Rng rng(17);
  CheckGradients({RandomLeaf(5, &rng), RandomLeaf(5, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Dot(ag::L2Normalize(v[0]), v[1]);
                 });
}

TEST(GradCheckTest, BroadcastScalar) {
  Rng rng(18);
  CheckGradients({RandomLeaf(1, &rng), RandomLeaf(6, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Dot(ag::BroadcastScalar(v[0], 6), v[1]);
                 });
}

TEST(GradCheckTest, ColMean) {
  Rng rng(19);
  CheckGradients({RandomLeaf(4, 3, &rng)}, [](const std::vector<Var>& v) {
    return ag::SumSquares(ag::ColMean(v[0]));
  });
}

TEST(GradCheckTest, AsMatrixAsVectorRoundTrip) {
  Rng rng(20);
  CheckGradients({RandomLeaf(5, &rng)}, [](const std::vector<Var>& v) {
    return ag::SumSquares(ag::AsVector(ag::AsMatrix(v[0])));
  });
}

TEST(GradCheckTest, HingeActiveAndInactive) {
  Var x = Var::Leaf(Tensor::FromVector({2.0f}), true);
  Backward(ag::Hinge(x));
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);

  Var y = Var::Leaf(Tensor::FromVector({-2.0f}), true);
  Var h = ag::Hinge(y);
  EXPECT_FLOAT_EQ(h.value()[0], 0.0f);
  Backward(h);
  EXPECT_FLOAT_EQ(y.grad()[0], 0.0f);
}

TEST(GradCheckTest, CompositeExpressionLikeLoss) {
  // A miniature version of the EHNA objective over raw leaves:
  // [m + ||a-b||^2 - ||a-c||^2]_+.
  Rng rng(21);
  CheckGradients(
      {RandomLeaf(4, &rng), RandomLeaf(4, &rng), RandomLeaf(4, &rng)},
      [](const std::vector<Var>& v) {
        Var d_pos = ag::SumSquares(ag::Sub(v[0], v[1]));
        Var d_neg = ag::SumSquares(ag::Sub(v[0], v[2]));
        return ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), 1.0f));
      });
}

}  // namespace
}  // namespace ehna
