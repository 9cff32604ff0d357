#include "nn/autodiff.h"

#include <cmath>
#include <functional>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

namespace lossyts::nn {
namespace {

// Numerical gradient check: builds a scalar loss from `forward` applied to a
// leaf of the given shape, then compares Backward()'s gradient against
// central finite differences.
void CheckGradients(size_t rows, size_t cols,
                    const std::function<Var(const Var&)>& forward,
                    uint64_t seed = 1, double tolerance = 1e-6) {
  Rng rng(seed);
  Tensor init(rows, cols);
  for (double& v : init.storage()) v = rng.Uniform(-1.0, 1.0);

  Var leaf = MakeVar(init, /*requires_grad=*/true);
  Var loss = forward(leaf);
  ASSERT_EQ(loss->value.rows(), 1u);
  ASSERT_EQ(loss->value.cols(), 1u);
  Backward(loss);
  const Tensor analytic = leaf->grad;

  const double h = 1e-6;
  for (size_t i = 0; i < init.size(); ++i) {
    Tensor plus = init;
    plus.storage()[i] += h;
    Tensor minus = init;
    minus.storage()[i] -= h;
    const double f_plus =
        forward(MakeVar(plus, true))->value(0, 0);
    const double f_minus =
        forward(MakeVar(minus, true))->value(0, 0);
    const double numeric = (f_plus - f_minus) / (2.0 * h);
    EXPECT_NEAR(analytic.storage()[i], numeric, tolerance)
        << "entry " << i;
  }
}

Tensor RandomTensor(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t(rows, cols);
  for (double& v : t.storage()) v = rng.Uniform(-1.0, 1.0);
  return t;
}

TEST(AutodiffTest, MeanGradient) {
  CheckGradients(3, 4, [](const Var& x) { return Mean(x); });
}

TEST(AutodiffTest, MatMulGradientLeft) {
  const Tensor b = RandomTensor(4, 2, 42);
  CheckGradients(3, 4, [&](const Var& x) {
    return Mean(MatMul(x, MakeVar(b)));
  });
}

TEST(AutodiffTest, MatMulGradientRight) {
  const Tensor a = RandomTensor(3, 4, 43);
  CheckGradients(4, 2, [&](const Var& x) {
    return Mean(MatMul(MakeVar(a), x));
  });
}

TEST(AutodiffTest, AddSubMulGradients) {
  const Tensor other = RandomTensor(3, 3, 44);
  CheckGradients(3, 3, [&](const Var& x) {
    return Mean(Mul(Add(x, MakeVar(other)), Sub(x, MakeVar(other))));
  });
}

TEST(AutodiffTest, AddRowBroadcastGradientOfBias) {
  const Tensor a = RandomTensor(5, 3, 45);
  CheckGradients(1, 3, [&](const Var& bias) {
    return Mean(AddRowBroadcast(MakeVar(a), bias));
  });
}

TEST(AutodiffTest, ScaleGradient) {
  CheckGradients(2, 3, [](const Var& x) { return Mean(Scale(x, -2.5)); });
}

TEST(AutodiffTest, SigmoidGradient) {
  CheckGradients(2, 5, [](const Var& x) { return Mean(Sigmoid(x)); });
}

TEST(AutodiffTest, TanhGradient) {
  CheckGradients(2, 5, [](const Var& x) { return Mean(Tanh(x)); });
}

TEST(AutodiffTest, ReluGradient) {
  // Shift away from the kink at zero for a clean finite-difference check.
  CheckGradients(2, 5, [](const Var& x) {
    return Mean(Relu(Add(x, MakeVar(Tensor(2, 5, 0.1)))));
  });
}

TEST(AutodiffTest, GeluGradient) {
  CheckGradients(2, 5, [](const Var& x) { return Mean(Gelu(x)); }, 7, 1e-5);
}

TEST(AutodiffTest, SoftmaxGradient) {
  const Tensor w = RandomTensor(3, 4, 46);
  CheckGradients(3, 4, [&](const Var& x) {
    return Mean(Mul(Softmax(x), MakeVar(w)));
  });
}

TEST(AutodiffTest, SoftmaxRowsSumToOne) {
  Var x = MakeVar(RandomTensor(4, 6, 47));
  Var y = Softmax(x);
  for (size_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 6; ++c) sum += y->value(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AutodiffTest, SoftmaxMaskBlocksPositions) {
  Var x = MakeVar(Tensor(1, 3, 0.0));
  Tensor mask(1, 3, 0.0);
  mask(0, 2) = -1e9;
  Var y = Softmax(x, &mask);
  EXPECT_NEAR(y->value(0, 0), 0.5, 1e-9);
  EXPECT_NEAR(y->value(0, 1), 0.5, 1e-9);
  EXPECT_NEAR(y->value(0, 2), 0.0, 1e-12);
}

// Regression (numcheck bug batch): a row masked to -inf in every position
// used to produce exp(-inf - -inf) = NaN values that poisoned the whole
// graph. Such rows are defined as uniform with zero gradient; open rows in
// the same tensor must be unaffected.
TEST(AutodiffTest, SoftmaxFullyMaskedRowIsUniformWithZeroGradient) {
  const double inf = std::numeric_limits<double>::infinity();
  Var x = MakeVar(RandomTensor(2, 4, 50), /*requires_grad=*/true);
  Tensor mask(2, 4, 0.0);
  for (size_t c = 0; c < 4; ++c) mask(1, c) = -inf;
  Var y = Softmax(x, &mask);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(y->value(1, c), 0.25) << "col " << c;
  }
  double open_row_sum = 0.0;
  for (size_t c = 0; c < 4; ++c) open_row_sum += y->value(0, c);
  EXPECT_NEAR(open_row_sum, 1.0, 1e-12);

  const Tensor w = RandomTensor(2, 4, 51);
  Backward(Mean(Mul(y, MakeVar(w))));
  double open_row_grad = 0.0;
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(x->grad(1, c), 0.0) << "col " << c;
    ASSERT_TRUE(std::isfinite(x->grad(0, c))) << "col " << c;
    open_row_grad += std::abs(x->grad(0, c));
  }
  EXPECT_GT(open_row_grad, 0.0);  // The open row still learns.
}

TEST(AutodiffTest, LayerNormGradient) {
  const Tensor gain = RandomTensor(1, 4, 48);
  const Tensor bias = RandomTensor(1, 4, 49);
  CheckGradients(3, 4, [&](const Var& x) {
    return Mean(LayerNorm(x, MakeVar(gain, true), MakeVar(bias, true)));
  }, 2, 1e-5);
}

TEST(AutodiffTest, LayerNormGainBiasGradients) {
  const Tensor a = RandomTensor(3, 4, 50);
  const Tensor bias = RandomTensor(1, 4, 51);
  CheckGradients(1, 4, [&](const Var& gain) {
    const Tensor w = RandomTensor(3, 4, 52);
    return Mean(Mul(LayerNorm(MakeVar(a, true), gain, MakeVar(bias, true)),
                    MakeVar(w)));
  });
}

TEST(AutodiffTest, TransposeGradient) {
  const Tensor w = RandomTensor(4, 3, 53);
  CheckGradients(3, 4, [&](const Var& x) {
    return Mean(Mul(Transpose(x), MakeVar(w)));
  });
}

TEST(AutodiffTest, SliceGradients) {
  const Tensor w = RandomTensor(2, 2, 54);
  CheckGradients(4, 4, [&](const Var& x) {
    return Mean(Mul(SliceRows(SliceCols(x, 1, 3), 0, 2), MakeVar(w)));
  });
}

TEST(AutodiffTest, ConcatGradients) {
  const Tensor b = RandomTensor(2, 3, 55);
  CheckGradients(2, 3, [&](const Var& x) {
    const Var rows = ConcatRows(x, MakeVar(b, true));
    const Var cols = ConcatCols(x, MakeVar(b, true));
    return Add(Mean(rows), Mean(cols));
  });
}

TEST(AutodiffTest, MseLossGradient) {
  const Tensor target = RandomTensor(3, 2, 56);
  CheckGradients(3, 2, [&](const Var& x) {
    return MseLoss(x, MakeVar(target));
  });
}

TEST(AutodiffTest, StridedRowPoolGradient) {
  const Tensor w = RandomTensor(3, 2, 57);
  CheckGradients(5, 2, [&](const Var& x) {
    return Mean(Mul(StridedRowPool(x, 2), MakeVar(w)));
  });
}

TEST(AutodiffTest, StridedRowPoolShape) {
  Var x = MakeVar(RandomTensor(96, 8, 58));
  EXPECT_EQ(StridedRowPool(x, 2)->value.rows(), 48u);
  EXPECT_EQ(StridedRowPool(x, 3)->value.rows(), 32u);
}

TEST(AutodiffTest, DropoutTrainingScalesExpectation) {
  Rng rng(59);
  Var x = MakeVar(Tensor(100, 100, 1.0));
  Var y = Dropout(x, 0.5, /*train=*/true, rng);
  double mean = 0.0;
  for (double v : y->value.storage()) mean += v;
  mean /= static_cast<double>(y->value.size());
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(AutodiffTest, DropoutEvalIsIdentity) {
  Rng rng(60);
  Var x = MakeVar(RandomTensor(5, 5, 61));
  Var y = Dropout(x, 0.5, /*train=*/false, rng);
  for (size_t i = 0; i < x->value.size(); ++i) {
    EXPECT_EQ(y->value.storage()[i], x->value.storage()[i]);
  }
}

TEST(AutodiffTest, ChainedGraphGradient) {
  // A small multi-layer expression exercising reuse of one node twice.
  const Tensor w1 = RandomTensor(4, 4, 62);
  CheckGradients(2, 4, [&](const Var& x) {
    const Var h = Tanh(MatMul(x, MakeVar(w1)));
    return Mean(Mul(h, h));  // h used twice: gradient accumulation.
  }, 3, 1e-5);
}

TEST(AutodiffTest, BackwardTwiceIsIndependent) {
  Var x = MakeVar(RandomTensor(2, 2, 63), true);
  Var loss = Mean(Mul(x, x));
  Backward(loss);
  const Tensor first = x->grad;
  Backward(loss);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(x->grad.storage()[i], first.storage()[i], 1e-12);
  }
}

// One small graph over the op kinds the forecasters' inference path uses.
Var ScopeProbe(const Var& x, const Var& w, const Var& bias) {
  const Var h = Tanh(AddRowBroadcast(MatMul(x, w), bias));
  const Var g = Sigmoid(Sub(h, Scale(x, 0.5)));
  return Mean(Mul(Add(h, g), Relu(Gelu(h))));
}

// Whether ops on the calling thread record the tape.
bool Taping() {
  return !Scale(MakeVar(Tensor(1, 1, 1.0), true), 1.0)->inputs.empty();
}

TEST(NoGradScopeTest, ValuesMatchTapeAndNodesHoldNoGraph) {
  const Var x = MakeVar(RandomTensor(3, 4, 70), true);
  const Var w = MakeVar(RandomTensor(4, 4, 71), true);
  const Var bias = MakeVar(RandomTensor(1, 4, 72), true);
  const Var taped = ScopeProbe(x, w, bias);
  NoGradScope scope;
  const Var free_node = ScopeProbe(x, w, bias);
  EXPECT_EQ(free_node->value.storage(), taped->value.storage());
  EXPECT_TRUE(free_node->inputs.empty());
  EXPECT_FALSE(free_node->backward);
  EXPECT_FALSE(free_node->requires_grad);
  const Var product = MatMul(x, w);
  EXPECT_TRUE(product->inputs.empty());
  EXPECT_FALSE(product->backward);
  EXPECT_FALSE(product->requires_grad);
  // Leaves are not ops: MakeVar keeps the requested flag.
  EXPECT_TRUE(MakeVar(Tensor(1, 1), true)->requires_grad);
}

TEST(NoGradScopeTest, NestedScopesRestorePreviousState) {
  EXPECT_TRUE(Taping());
  {
    NoGradScope outer;
    EXPECT_FALSE(Taping());
    {
      NoGradScope inner;
      EXPECT_FALSE(Taping());
    }
    EXPECT_FALSE(Taping());
  }
  EXPECT_TRUE(Taping());
  const Var x = MakeVar(RandomTensor(2, 2, 73), true);
  const Var y = Scale(x, 2.0);
  EXPECT_EQ(y->inputs.size(), 1u);
  EXPECT_TRUE(y->requires_grad);
}

TEST(NoGradScopeTest, ScopeOnOneThreadLeavesAnotherThreadTaping) {
  const Var x = MakeVar(RandomTensor(2, 3, 74), true);
  NoGradScope scope;
  Var other;
  std::thread worker([&] { other = Mean(Mul(x, x)); });
  worker.join();
  ASSERT_EQ(other->inputs.size(), 1u);
  EXPECT_TRUE(other->requires_grad);
  EXPECT_TRUE(other->backward);
  EXPECT_TRUE(Mean(Mul(x, x))->inputs.empty());
}

TEST(NoGradScopeTest, BackwardAfterScopeMatchesUnscopedGradients) {
  const Var x = MakeVar(RandomTensor(3, 4, 75), true);
  const Var w = MakeVar(RandomTensor(4, 4, 76), true);
  const Var bias = MakeVar(RandomTensor(1, 4, 77), true);
  Backward(ScopeProbe(x, w, bias));
  const Tensor gx = x->grad;
  const Tensor gw = w->grad;
  const Tensor gb = bias->grad;
  {
    NoGradScope scope;
    ScopeProbe(x, w, bias);
  }
  Backward(ScopeProbe(x, w, bias));
  EXPECT_EQ(x->grad.storage(), gx.storage());
  EXPECT_EQ(w->grad.storage(), gw.storage());
  EXPECT_EQ(bias->grad.storage(), gb.storage());
}

}  // namespace
}  // namespace lossyts::nn
