#include "nn/autodiff.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <unordered_set>
#include <utility>

#include "core/failpoint.h"

namespace lossyts::nn {

namespace {

thread_local bool no_grad = false;

// The backward lambda is taken as a template parameter so that, under a
// NoGradScope, it is dropped without ever being wrapped in a std::function.
template <typename F>
Var MakeOpNode(Tensor value, std::initializer_list<Var> inputs, F&& backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (no_grad) return node;
  node->inputs.assign(inputs);
  for (const Var& in : node->inputs) {
    node->requires_grad = node->requires_grad || in->requires_grad;
  }
  if (node->requires_grad) node->backward = std::forward<F>(backward);
  return node;
}

void TopoSort(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->inputs.size()) {
      Node* next = node->inputs[child].get();
      ++child;
      if (visited.insert(next).second) stack.push_back({next, 0});
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

NoGradScope::NoGradScope() : previous_(no_grad) { no_grad = true; }

NoGradScope::~NoGradScope() { no_grad = previous_; }

Var MakeVar(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

void Backward(const Var& loss) {
  assert(loss->value.rows() == 1 && loss->value.cols() == 1);
  std::vector<Node*> order;
  TopoSort(loss, order);
  for (Node* n : order) {
    n->grad = Tensor(n->value.rows(), n->value.cols(), 0.0);
  }
  loss->grad(0, 0) = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward) (*it)->backward(**it);
  }
}

Var MatMul(const Var& a, const Var& b) {
  assert(a->value.cols() == b->value.rows());
  const size_t m = a->value.rows();
  const size_t k = a->value.cols();
  const size_t n = b->value.cols();
  Tensor out(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const double av = a->value(i, p);
      if (av == 0.0) continue;
      for (size_t j = 0; j < n; ++j) out(i, j) += av * b->value(p, j);
    }
  }
  return MakeOpNode(std::move(out), {a, b}, [m, k, n](Node& node) {
    const Var& a_in = node.inputs[0];
    const Var& b_in = node.inputs[1];
    // dA = dOut · B^T,  dB = A^T · dOut.
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double g = node.grad(i, j);
        if (g == 0.0) continue;
        for (size_t p = 0; p < k; ++p) {
          a_in->grad(i, p) += g * b_in->value(p, j);
          b_in->grad(p, j) += a_in->value(i, p) * g;
        }
      }
    }
    // Seeded-fault drill for the finite-difference gradient oracle: when the
    // site is armed the accumulated dA is corrupted, which numcheck must
    // report. One relaxed atomic load when unarmed (see core/failpoint.h).
    if (!FailPoints::Hit("autodiff_backward_perturb").ok()) {
      a_in->grad(0, 0) += 0.5;
    }
  });
}

Var Add(const Var& a, const Var& b) {
  assert(a->value.SameShape(b->value));
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.storage()[i] += b->value.storage()[i];
  }
  return MakeOpNode(std::move(out), {a, b}, [](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      node.inputs[0]->grad.storage()[i] += node.grad.storage()[i];
      node.inputs[1]->grad.storage()[i] += node.grad.storage()[i];
    }
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  assert(bias->value.rows() == 1 && bias->value.cols() == a->value.cols());
  Tensor out = a->value;
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) += bias->value(0, c);
  }
  return MakeOpNode(std::move(out), {a, bias}, [](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        node.inputs[0]->grad(r, c) += node.grad(r, c);
        node.inputs[1]->grad(0, c) += node.grad(r, c);
      }
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  assert(a->value.SameShape(b->value));
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.storage()[i] -= b->value.storage()[i];
  }
  return MakeOpNode(std::move(out), {a, b}, [](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      node.inputs[0]->grad.storage()[i] += node.grad.storage()[i];
      node.inputs[1]->grad.storage()[i] -= node.grad.storage()[i];
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  assert(a->value.SameShape(b->value));
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.storage()[i] *= b->value.storage()[i];
  }
  return MakeOpNode(std::move(out), {a, b}, [](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      node.inputs[0]->grad.storage()[i] +=
          node.grad.storage()[i] * node.inputs[1]->value.storage()[i];
      node.inputs[1]->grad.storage()[i] +=
          node.grad.storage()[i] * node.inputs[0]->value.storage()[i];
    }
  });
}

Var Scale(const Var& a, double s) {
  Tensor out = a->value;
  for (double& v : out.storage()) v *= s;
  return MakeOpNode(std::move(out), {a}, [s](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      node.inputs[0]->grad.storage()[i] += s * node.grad.storage()[i];
    }
  });
}

Var Sigmoid(const Var& a) {
  Tensor out = a->value;
  for (double& v : out.storage()) v = 1.0 / (1.0 + std::exp(-v));
  return MakeOpNode(std::move(out), {a}, [](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      const double y = node.value.storage()[i];
      node.inputs[0]->grad.storage()[i] +=
          node.grad.storage()[i] * y * (1.0 - y);
    }
  });
}

Var Tanh(const Var& a) {
  Tensor out = a->value;
  for (double& v : out.storage()) v = std::tanh(v);
  return MakeOpNode(std::move(out), {a}, [](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      const double y = node.value.storage()[i];
      node.inputs[0]->grad.storage()[i] +=
          node.grad.storage()[i] * (1.0 - y * y);
    }
  });
}

Var Relu(const Var& a) {
  Tensor out = a->value;
  for (double& v : out.storage()) v = std::max(v, 0.0);
  return MakeOpNode(std::move(out), {a}, [](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      if (node.inputs[0]->value.storage()[i] > 0.0) {
        node.inputs[0]->grad.storage()[i] += node.grad.storage()[i];
      }
    }
  });
}

Var Gelu(const Var& a) {
  // Tanh approximation of GELU.
  constexpr double kC = 0.7978845608028654;  // sqrt(2/pi).
  Tensor out = a->value;
  for (double& v : out.storage()) {
    const double inner = kC * (v + 0.044715 * v * v * v);
    v = 0.5 * v * (1.0 + std::tanh(inner));
  }
  return MakeOpNode(std::move(out), {a}, [](Node& node) {
    constexpr double kC2 = 0.7978845608028654;
    for (size_t i = 0; i < node.grad.size(); ++i) {
      const double x = node.inputs[0]->value.storage()[i];
      const double inner = kC2 * (x + 0.044715 * x * x * x);
      const double t = std::tanh(inner);
      const double dinner = kC2 * (1.0 + 3.0 * 0.044715 * x * x);
      const double dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner;
      node.inputs[0]->grad.storage()[i] += node.grad.storage()[i] * dy;
    }
  });
}

Var Softmax(const Var& a, const Tensor* additive_mask) {
  Tensor out = a->value;
  if (additive_mask != nullptr) {
    assert(additive_mask->SameShape(out));
    for (size_t i = 0; i < out.size(); ++i) {
      out.storage()[i] += additive_mask->storage()[i];
    }
  }
  // A row masked to -inf in every position has an empty support: the
  // shifted exponentials would all be exp(-inf - -inf) = NaN. Such rows are
  // defined as the uniform distribution with zero gradient (the limit of a
  // row with no preference), and the backward pass skips them.
  auto dead_rows = std::make_shared<std::vector<uint8_t>>(out.rows(), 0);
  for (size_t r = 0; r < out.rows(); ++r) {
    double mx = out(r, 0);
    for (size_t c = 1; c < out.cols(); ++c) mx = std::max(mx, out(r, c));
    if (std::isinf(mx) && mx < 0.0) {
      (*dead_rows)[r] = 1;
      for (size_t c = 0; c < out.cols(); ++c) {
        out(r, c) = 1.0 / static_cast<double>(out.cols());
      }
      continue;
    }
    double sum = 0.0;
    for (size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = std::exp(out(r, c) - mx);
      sum += out(r, c);
    }
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) /= sum;
  }
  return MakeOpNode(std::move(out), {a}, [dead_rows](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      if ((*dead_rows)[r]) continue;  // Constant output: zero gradient.
      double dot = 0.0;
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        dot += node.grad(r, c) * node.value(r, c);
      }
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        node.inputs[0]->grad(r, c) +=
            node.value(r, c) * (node.grad(r, c) - dot);
      }
    }
  });
}

Var LayerNorm(const Var& a, const Var& gain, const Var& bias,
              double epsilon) {
  const size_t n = a->value.cols();
  assert(gain->value.rows() == 1 && gain->value.cols() == n);
  assert(bias->value.rows() == 1 && bias->value.cols() == n);
  Tensor out(a->value.rows(), n);
  for (size_t r = 0; r < a->value.rows(); ++r) {
    double mu = 0.0;
    for (size_t c = 0; c < n; ++c) mu += a->value(r, c);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (size_t c = 0; c < n; ++c) {
      const double d = a->value(r, c) - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const double inv = 1.0 / std::sqrt(var + epsilon);
    for (size_t c = 0; c < n; ++c) {
      const double xhat = (a->value(r, c) - mu) * inv;
      out(r, c) = xhat * gain->value(0, c) + bias->value(0, c);
    }
  }
  return MakeOpNode(std::move(out), {a, gain, bias}, [epsilon, n](Node& node) {
    const Var& a_in = node.inputs[0];
    const Var& gain_in = node.inputs[1];
    const Var& bias_in = node.inputs[2];
    const double dn = static_cast<double>(n);
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      double mu = 0.0;
      for (size_t c = 0; c < n; ++c) mu += a_in->value(r, c);
      mu /= dn;
      double var = 0.0;
      for (size_t c = 0; c < n; ++c) {
        const double d = a_in->value(r, c) - mu;
        var += d * d;
      }
      var /= dn;
      const double inv = 1.0 / std::sqrt(var + epsilon);

      double sum_dxhat = 0.0;
      double sum_dxhat_xhat = 0.0;
      for (size_t c = 0; c < n; ++c) {
        const double xhat = (a_in->value(r, c) - mu) * inv;
        const double dxhat = node.grad(r, c) * gain_in->value(0, c);
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat;
        gain_in->grad(0, c) += node.grad(r, c) * xhat;
        bias_in->grad(0, c) += node.grad(r, c);
      }
      for (size_t c = 0; c < n; ++c) {
        const double xhat = (a_in->value(r, c) - mu) * inv;
        const double dxhat = node.grad(r, c) * gain_in->value(0, c);
        a_in->grad(r, c) +=
            inv * (dxhat - sum_dxhat / dn - xhat * sum_dxhat_xhat / dn);
      }
    }
  });
}

Var Dropout(const Var& a, double rate, bool train, Rng& rng) {
  if (!train || rate <= 0.0) {
    // Identity pass-through that still joins the graph.
    return Scale(a, 1.0);
  }
  const double keep = 1.0 - rate;
  auto mask = std::make_shared<Tensor>(a->value.rows(), a->value.cols());
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    const bool kept = rng.Uniform() < keep;
    mask->storage()[i] = kept ? 1.0 / keep : 0.0;
    out.storage()[i] *= mask->storage()[i];
  }
  return MakeOpNode(std::move(out), {a}, [mask](Node& node) {
    for (size_t i = 0; i < node.grad.size(); ++i) {
      node.inputs[0]->grad.storage()[i] +=
          node.grad.storage()[i] * mask->storage()[i];
    }
  });
}

Var Transpose(const Var& a) {
  Tensor out(a->value.cols(), a->value.rows());
  for (size_t r = 0; r < a->value.rows(); ++r) {
    for (size_t c = 0; c < a->value.cols(); ++c) out(c, r) = a->value(r, c);
  }
  return MakeOpNode(std::move(out), {a}, [](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        node.inputs[0]->grad(c, r) += node.grad(r, c);
      }
    }
  });
}

Var SliceRows(const Var& a, size_t begin, size_t end) {
  assert(begin <= end && end <= a->value.rows());
  Tensor out(end - begin, a->value.cols());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < a->value.cols(); ++c) {
      out(r - begin, c) = a->value(r, c);
    }
  }
  return MakeOpNode(std::move(out), {a}, [begin](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        node.inputs[0]->grad(begin + r, c) += node.grad(r, c);
      }
    }
  });
}

Var SliceCols(const Var& a, size_t begin, size_t end) {
  assert(begin <= end && end <= a->value.cols());
  Tensor out(a->value.rows(), end - begin);
  for (size_t r = 0; r < a->value.rows(); ++r) {
    for (size_t c = begin; c < end; ++c) out(r, c - begin) = a->value(r, c);
  }
  return MakeOpNode(std::move(out), {a}, [begin](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        node.inputs[0]->grad(r, begin + c) += node.grad(r, c);
      }
    }
  });
}

Var ConcatRows(const Var& a, const Var& b) {
  assert(a->value.cols() == b->value.cols());
  Tensor out(a->value.rows() + b->value.rows(), a->value.cols());
  for (size_t r = 0; r < a->value.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) = a->value(r, c);
  }
  for (size_t r = 0; r < b->value.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      out(a->value.rows() + r, c) = b->value(r, c);
    }
  }
  const size_t split = a->value.rows();
  return MakeOpNode(std::move(out), {a, b}, [split](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        if (r < split) {
          node.inputs[0]->grad(r, c) += node.grad(r, c);
        } else {
          node.inputs[1]->grad(r - split, c) += node.grad(r, c);
        }
      }
    }
  });
}

Var ConcatCols(const Var& a, const Var& b) {
  assert(a->value.rows() == b->value.rows());
  Tensor out(a->value.rows(), a->value.cols() + b->value.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < a->value.cols(); ++c) out(r, c) = a->value(r, c);
    for (size_t c = 0; c < b->value.cols(); ++c) {
      out(r, a->value.cols() + c) = b->value(r, c);
    }
  }
  const size_t split = a->value.cols();
  return MakeOpNode(std::move(out), {a, b}, [split](Node& node) {
    for (size_t r = 0; r < node.grad.rows(); ++r) {
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        if (c < split) {
          node.inputs[0]->grad(r, c) += node.grad(r, c);
        } else {
          node.inputs[1]->grad(r, c - split) += node.grad(r, c);
        }
      }
    }
  });
}

Var Mean(const Var& a) {
  Tensor out(1, 1);
  double sum = 0.0;
  for (double v : a->value.storage()) sum += v;
  out(0, 0) = sum / static_cast<double>(a->value.size());
  return MakeOpNode(std::move(out), {a}, [](Node& node) {
    const double g =
        node.grad(0, 0) / static_cast<double>(node.inputs[0]->value.size());
    for (double& v : node.inputs[0]->grad.storage()) v += g;
  });
}

Var MseLoss(const Var& prediction, const Var& target) {
  assert(prediction->value.SameShape(target->value));
  Tensor out(1, 1);
  double sum = 0.0;
  for (size_t i = 0; i < prediction->value.size(); ++i) {
    const double d =
        prediction->value.storage()[i] - target->value.storage()[i];
    sum += d * d;
  }
  out(0, 0) = sum / static_cast<double>(prediction->value.size());
  return MakeOpNode(std::move(out), {prediction, target}, [](Node& node) {
    const double scale =
        2.0 * node.grad(0, 0) /
        static_cast<double>(node.inputs[0]->value.size());
    for (size_t i = 0; i < node.inputs[0]->value.size(); ++i) {
      const double d = node.inputs[0]->value.storage()[i] -
                       node.inputs[1]->value.storage()[i];
      node.inputs[0]->grad.storage()[i] += scale * d;
      node.inputs[1]->grad.storage()[i] -= scale * d;
    }
  });
}

Var StridedRowPool(const Var& a, size_t stride) {
  assert(stride >= 1);
  const size_t in_rows = a->value.rows();
  const size_t out_rows = (in_rows + stride - 1) / stride;
  Tensor out(out_rows, a->value.cols());
  for (size_t o = 0; o < out_rows; ++o) {
    const size_t begin = o * stride;
    const size_t end = std::min(begin + stride, in_rows);
    for (size_t c = 0; c < out.cols(); ++c) {
      double sum = 0.0;
      for (size_t r = begin; r < end; ++r) sum += a->value(r, c);
      out(o, c) = sum / static_cast<double>(end - begin);
    }
  }
  return MakeOpNode(std::move(out), {a}, [stride, in_rows](Node& node) {
    for (size_t o = 0; o < node.grad.rows(); ++o) {
      const size_t begin = o * stride;
      const size_t end = std::min(begin + stride, in_rows);
      const double inv = 1.0 / static_cast<double>(end - begin);
      for (size_t c = 0; c < node.grad.cols(); ++c) {
        for (size_t r = begin; r < end; ++r) {
          node.inputs[0]->grad(r, c) += node.grad(o, c) * inv;
        }
      }
    }
  });
}

}  // namespace lossyts::nn
