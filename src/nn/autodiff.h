#ifndef LOSSYTS_NN_AUTODIFF_H_
#define LOSSYTS_NN_AUTODIFF_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "nn/tensor.h"

namespace lossyts::nn {

/// One node of the dynamically-built computation graph (reverse-mode tape).
/// Nodes are created by the op functions below and connected by shared_ptr,
/// so a forward pass owns its graph and everything is freed when the loss
/// Var goes out of scope. Parameters are long-lived leaf nodes whose `grad`
/// the optimizer consumes.
struct Node {
  Tensor value;
  Tensor grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> inputs;
  /// Accumulates this node's grad into its inputs' grads.
  std::function<void(Node&)> backward;
};

using Var = std::shared_ptr<Node>;

/// Creates a leaf holding `value`. Parameters pass requires_grad = true.
Var MakeVar(Tensor value, bool requires_grad = false);

/// Runs reverse-mode accumulation from `loss` (must be 1×1). Zeroes grads of
/// every node in the graph first, then seeds d(loss)/d(loss) = 1.
void Backward(const Var& loss);

/// Turns tape recording off on the calling thread for the guard's lifetime
/// (inference and validation passes). Ops still compute their values exactly
/// as they do when taping, but the nodes they return keep no inputs and no
/// backward and never require grad, so every intermediate is freed as soon
/// as the next op has consumed it. Leaves made by MakeVar are unaffected.
/// Scopes nest, and the flag is thread_local: other threads keep taping.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool previous_;
};

// ---- Core ops. Shapes are asserted; all return new graph nodes. ----

/// Matrix product a(m×k) · b(k×n).
Var MatMul(const Var& a, const Var& b);
/// Element-wise sum (same shape).
Var Add(const Var& a, const Var& b);
/// Adds a 1×n bias row to every row of a (m×n).
Var AddRowBroadcast(const Var& a, const Var& bias);
/// Element-wise difference (same shape).
Var Sub(const Var& a, const Var& b);
/// Element-wise (Hadamard) product.
Var Mul(const Var& a, const Var& b);
/// Multiplies by a constant.
Var Scale(const Var& a, double s);

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var Gelu(const Var& a);

/// Row-wise softmax with an optional additive mask (same shape; use large
/// negative entries to block positions, e.g. causal attention masks). A row
/// whose every position is masked to -inf has an empty support; it is
/// defined as the uniform distribution with zero gradient rather than NaN.
Var Softmax(const Var& a, const Tensor* additive_mask = nullptr);

/// Row-wise layer normalization with learned gain/bias (1×n each).
Var LayerNorm(const Var& a, const Var& gain, const Var& bias,
              double epsilon = 1e-5);

/// Inverted dropout. Active only when `train` is true; scaling keeps the
/// expectation unchanged.
Var Dropout(const Var& a, double rate, bool train, Rng& rng);

Var Transpose(const Var& a);
/// Rows [begin, end) of a.
Var SliceRows(const Var& a, size_t begin, size_t end);
/// Columns [begin, end) of a.
Var SliceCols(const Var& a, size_t begin, size_t end);
/// Stacks a (m1×n) on top of b (m2×n).
Var ConcatRows(const Var& a, const Var& b);
/// Concatenates a (m×n1) and b (m×n2) side by side.
Var ConcatCols(const Var& a, const Var& b);

/// Mean of all entries (1×1).
Var Mean(const Var& a);
/// Mean squared error between same-shaped tensors (1×1).
Var MseLoss(const Var& prediction, const Var& target);

/// Average-pools rows with the given stride (Informer's distilling step).
Var StridedRowPool(const Var& a, size_t stride);

}  // namespace lossyts::nn

#endif  // LOSSYTS_NN_AUTODIFF_H_
