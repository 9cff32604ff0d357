#ifndef LOSSYTS_NN_MODULE_H_
#define LOSSYTS_NN_MODULE_H_

#include <vector>

#include "core/rng.h"
#include "nn/autodiff.h"

namespace lossyts::nn {

/// Base for parameterized layers: exposes the long-lived parameter leaves so
/// optimizers and parameter-count reports can walk the whole model.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameter leaves of this module (and its children).
  virtual std::vector<Var> Parameters() const = 0;

  /// Total scalar parameter count.
  size_t NumParameters() const {
    size_t n = 0;
    for (const Var& p : Parameters()) n += p->value.size();
    return n;
  }
};

/// Creates a trainable leaf initialized with Glorot/Xavier uniform values.
Var GlorotParameter(size_t rows, size_t cols, Rng& rng);

/// Creates a trainable leaf filled with a constant (biases, norm gains).
Var ConstantParameter(size_t rows, size_t cols, double value);

/// Fully connected layer y = x·W + b for row-major batches (m×in -> m×out).
class Linear : public Module {
 public:
  Linear(size_t in_features, size_t out_features, Rng& rng);

  Var Forward(const Var& x) const;
  std::vector<Var> Parameters() const override { return {weight_, bias_}; }

 private:
  Var weight_;
  Var bias_;
};

/// Learnable layer normalization over feature columns.
class LayerNormModule : public Module {
 public:
  explicit LayerNormModule(size_t features);

  Var Forward(const Var& x) const;
  std::vector<Var> Parameters() const override { return {gain_, bias_}; }

 private:
  Var gain_;
  Var bias_;
};

/// Gated recurrent unit cell (Cho et al. 2014). Processes one time step for
/// a batch of b sequences: given input x_t (b×input) and state h_{t-1}
/// (b×hidden), returns h_t (b×hidden).
class GruCell : public Module {
 public:
  GruCell(size_t input_size, size_t hidden_size, Rng& rng);

  Var Forward(const Var& x, const Var& h_prev) const;
  size_t hidden_size() const { return hidden_size_; }
  std::vector<Var> Parameters() const override;

 private:
  size_t hidden_size_;
  // Update gate z, reset gate r, candidate n: each has input and hidden
  // weights plus a bias.
  Var wz_, uz_, bz_;
  Var wr_, ur_, br_;
  Var wn_, un_, bn_;
};

}  // namespace lossyts::nn

#endif  // LOSSYTS_NN_MODULE_H_
