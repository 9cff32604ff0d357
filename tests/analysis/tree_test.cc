#include "analysis/tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/gbm.h"
#include "core/rng.h"

namespace lossyts::analysis {
namespace {

// y = 10 when x0 <= 0.5 else -10; perfectly learnable with one split.
void MakeStepData(std::vector<std::vector<double>>* rows,
                  std::vector<double>* y, size_t n, uint64_t seed) {
  Rng rng(seed);
  rows->clear();
  y->clear();
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform();
    const double x1 = rng.Uniform();
    rows->push_back({x0, x1});
    y->push_back(x0 <= 0.5 ? 10.0 : -10.0);
  }
}

TEST(TreeTest, LearnsSingleSplit) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  MakeStepData(&rows, &y, 200, 1);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(rows, y).ok());
  EXPECT_NEAR(tree.Predict({0.2, 0.9}), 10.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.8, 0.1}), -10.0, 1e-9);
}

TEST(TreeTest, RootCoverEqualsSampleCount) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  MakeStepData(&rows, &y, 150, 2);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(rows, y).ok());
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 150.0);
  // Children covers sum to the parent's.
  const TreeNode& root = tree.nodes()[0];
  ASSERT_GE(root.feature, 0);
  EXPECT_DOUBLE_EQ(tree.nodes()[root.left].cover +
                       tree.nodes()[root.right].cover,
                   root.cover);
}

TEST(TreeTest, ConstantTargetGivesSingleLeaf) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.Uniform()});
    y.push_back(7.0);
  }
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(rows, y).ok());
  EXPECT_NEAR(tree.Predict({0.5}), 7.0, 1e-9);
}

TEST(TreeTest, RespectsMaxDepth) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform();
    rows.push_back({x});
    y.push_back(std::sin(10.0 * x));
  }
  RegressionTree::Options options;
  options.max_depth = 2;
  RegressionTree tree(options);
  ASSERT_TRUE(tree.Fit(rows, y).ok());
  // Depth-2 tree has at most 7 nodes.
  EXPECT_LE(tree.nodes().size(), 7u);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  MakeStepData(&rows, &y, 30, 5);
  RegressionTree::Options options;
  options.min_samples_leaf = 10;
  RegressionTree tree(options);
  ASSERT_TRUE(tree.Fit(rows, y).ok());
  for (const TreeNode& node : tree.nodes()) {
    if (node.feature < 0) {
      EXPECT_GE(node.cover, 10.0);
    }
  }
}

TEST(TreeTest, FitWithSubsetOnlyUsesSubset) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  MakeStepData(&rows, &y, 100, 6);
  // Subset where all targets are from the left regime.
  std::vector<size_t> subset;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i][0] <= 0.5) subset.push_back(i);
  }
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(rows, y, subset).ok());
  EXPECT_NEAR(tree.Predict({0.9, 0.5}), 10.0, 1e-9);  // Never saw -10.
}

TEST(TreeTest, EmptySubsetFails) {
  std::vector<std::vector<double>> rows = {{1.0}};
  std::vector<double> y = {1.0};
  RegressionTree tree;
  EXPECT_FALSE(tree.Fit(rows, y, {}).ok());
}

TEST(TreeTest, MismatchedInputFails) {
  std::vector<std::vector<double>> rows = {{1.0}, {2.0}};
  std::vector<double> y = {1.0};
  RegressionTree tree;
  EXPECT_FALSE(tree.Fit(rows, y).ok());
}

TEST(TreeTest, RaggedRowsFail) {
  // The short row comes after the first, whose width used to be trusted.
  std::vector<std::vector<double>> rows = {{1.0, 2.0}, {2.0, 1.0}, {3.0}};
  std::vector<double> y = {1.0, 2.0, 3.0};
  RegressionTree tree;
  EXPECT_EQ(tree.Fit(rows, y).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.Fit(rows, y, {0, 1}).code(), StatusCode::kInvalidArgument);
}

TEST(GbmTest, FitsNonlinearFunction) {
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 1000; ++i) {
    const double x0 = rng.Uniform(-2.0, 2.0);
    const double x1 = rng.Uniform(-2.0, 2.0);
    rows.push_back({x0, x1});
    y.push_back(std::sin(x0) + 0.5 * x1 * x1);
  }
  GradientBoostedTrees::Options options;
  options.num_trees = 200;
  GradientBoostedTrees gbm(options);
  ASSERT_TRUE(gbm.Fit(rows, y).ok());
  double sse = 0.0;
  double sst = 0.0;
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= static_cast<double>(y.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double pred = gbm.Predict(rows[i]);
    sse += (y[i] - pred) * (y[i] - pred);
    sst += (y[i] - mean_y) * (y[i] - mean_y);
  }
  EXPECT_LT(sse / sst, 0.05);  // R^2 > 0.95 in-sample.
}

TEST(GbmTest, BaseScoreIsTargetMean) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  MakeStepData(&rows, &y, 100, 8);
  GradientBoostedTrees gbm;
  ASSERT_TRUE(gbm.Fit(rows, y).ok());
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= static_cast<double>(y.size());
  EXPECT_NEAR(gbm.base_score(), mean_y, 1e-12);
}

TEST(GbmTest, SubsamplingStillLearns) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  MakeStepData(&rows, &y, 500, 9);
  GradientBoostedTrees::Options options;
  options.subsample = 0.5;
  options.num_trees = 50;
  GradientBoostedTrees gbm(options);
  ASSERT_TRUE(gbm.Fit(rows, y).ok());
  EXPECT_GT(gbm.Predict({0.2, 0.5}), 5.0);
  EXPECT_LT(gbm.Predict({0.8, 0.5}), -5.0);
}

TEST(GbmTest, InvalidOptionsFail) {
  std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {3.0}};
  std::vector<double> y = {1.0, 2.0, 3.0};
  GradientBoostedTrees::Options options;
  options.num_trees = 0;
  EXPECT_FALSE(GradientBoostedTrees(options).Fit(rows, y).ok());
  options.num_trees = 10;
  options.subsample = 1.5;
  EXPECT_FALSE(GradientBoostedTrees(options).Fit(rows, y).ok());
}

TEST(GbmTest, RaggedRowsFail) {
  std::vector<std::vector<double>> rows = {{1.0, 2.0}, {2.0}, {3.0, 1.0}};
  std::vector<double> y = {1.0, 2.0, 3.0};
  GradientBoostedTrees gbm;
  EXPECT_EQ(gbm.Fit(rows, y).code(), StatusCode::kInvalidArgument);
}

TEST(GbmTest, EmptyInputFails) {
  GradientBoostedTrees gbm;
  EXPECT_FALSE(gbm.Fit({}, {}).ok());
}

// ---- Differential oracle: the per-node-sort builder. ----

// The tree builder that sorted each feature's (x, target) pairs at every
// node, kept as the reference for the presorted one: both must produce the
// same nodes, bit for bit.
class ReferenceTree {
 public:
  explicit ReferenceTree(const RegressionTree::Options& options)
      : options_(options) {}

  std::vector<TreeNode> Fit(const std::vector<std::vector<double>>& rows,
                            const std::vector<double>& targets,
                            const std::vector<size_t>& row_indices) {
    nodes_.clear();
    std::vector<size_t> indices = row_indices;
    BuildNode(rows, targets, indices, 0, indices.size(), 0);
    return nodes_;
  }

 private:
  static double MeanOf(const std::vector<double>& targets,
                       const std::vector<size_t>& indices, size_t begin,
                       size_t end) {
    double sum = 0.0;
    for (size_t k = begin; k < end; ++k) sum += targets[indices[k]];
    return sum / static_cast<double>(end - begin);
  }

  int BuildNode(const std::vector<std::vector<double>>& rows,
                const std::vector<double>& targets,
                std::vector<size_t>& indices, size_t begin, size_t end,
                int depth) {
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back(TreeNode{});
    nodes_[node_id].value = MeanOf(targets, indices, begin, end);
    nodes_[node_id].cover = static_cast<double>(end - begin);

    const size_t n = end - begin;
    if (depth >= options_.max_depth || n < options_.min_samples_split) {
      return node_id;
    }
    const size_t num_features = rows[indices[begin]].size();
    double best_gain = -std::numeric_limits<double>::infinity();
    int best_feature = -1;
    double best_threshold = 0.0;

    std::vector<std::pair<double, double>> scratch(n);  // (feature value, y).
    for (size_t f = 0; f < num_features; ++f) {
      for (size_t k = 0; k < n; ++k) {
        const size_t idx = indices[begin + k];
        scratch[k] = {rows[idx][f], targets[idx]};
      }
      std::sort(scratch.begin(), scratch.end());
      if (scratch.front().first == scratch.back().first) continue;

      double total = 0.0;
      for (const auto& [xv, yv] : scratch) total += yv;
      double left_sum = 0.0;
      for (size_t k = 0; k + 1 < n; ++k) {
        left_sum += scratch[k].second;
        if (scratch[k].first == scratch[k + 1].first) continue;
        const size_t n_left = k + 1;
        const size_t n_right = n - n_left;
        if (n_left < options_.min_samples_leaf ||
            n_right < options_.min_samples_leaf) {
          continue;
        }
        const double right_sum = total - left_sum;
        const double gain =
            left_sum * left_sum / static_cast<double>(n_left) +
            right_sum * right_sum / static_cast<double>(n_right);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (scratch[k].first + scratch[k + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;

    const auto mid_it = std::partition(
        indices.begin() + begin, indices.begin() + end, [&](size_t idx) {
          return rows[idx][static_cast<size_t>(best_feature)] <=
                 best_threshold;
        });
    const size_t mid = static_cast<size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return node_id;  // Degenerate split.

    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const int left = BuildNode(rows, targets, indices, begin, mid, depth + 1);
    const int right = BuildNode(rows, targets, indices, mid, end, depth + 1);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

  RegressionTree::Options options_;
  std::vector<TreeNode> nodes_;
};

// The node fields packed without padding, so two node arrays compare by
// memcmp bit for bit (-0.0 and 0.0 differ, as do NaN payloads).
std::vector<uint8_t> NodeBytes(const std::vector<TreeNode>& nodes) {
  std::vector<uint8_t> bytes;
  auto put = [&bytes](const auto& field) {
    const size_t at = bytes.size();
    bytes.resize(at + sizeof(field));
    std::memcpy(bytes.data() + at, &field, sizeof(field));
  };
  for (const TreeNode& node : nodes) {
    put(node.feature);
    put(node.threshold);
    put(node.left);
    put(node.right);
    put(node.value);
    put(node.cover);
  }
  return bytes;
}

void ExpectSameNodes(const std::vector<TreeNode>& expected,
                     const std::vector<TreeNode>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  const std::vector<uint8_t> a = NodeBytes(expected);
  const std::vector<uint8_t> b = NodeBytes(actual);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

// Fits both builders on the same input and requires identical nodes.
void ExpectMatchesReference(const std::vector<std::vector<double>>& rows,
                            const std::vector<double>& y,
                            const std::vector<size_t>& row_indices,
                            const RegressionTree::Options& options) {
  RegressionTree tree(options);
  ASSERT_TRUE(tree.Fit(rows, y, row_indices).ok());
  ExpectSameNodes(ReferenceTree(options).Fit(rows, y, row_indices),
                  tree.nodes());
}

// A table whose features are continuous, quantized to a few levels or
// constant, with targets quantized too, so (x, y) pairs tie as well as x.
// A quarter of the targets are scaled by 1e16, so a sum over the same rows
// in another order rounds differently and moves the chosen split.
void MakeTiedTable(Rng& rng, size_t n, size_t num_features,
                   std::vector<std::vector<double>>* rows,
                   std::vector<double>* y) {
  std::vector<int> levels(num_features);  // 0 = continuous, 1 = constant.
  for (int& l : levels) l = static_cast<int>(rng.UniformInt(7));
  rows->assign(n, std::vector<double>(num_features));
  y->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < num_features; ++f) {
      const double u = rng.Uniform(-1.0, 1.0);
      (*rows)[i][f] = levels[f] == 0   ? u
                      : levels[f] == 1 ? -0.5
                                       : std::round(u * levels[f]);
    }
    const double v = (*rows)[i][0] + rng.Uniform(-1.0, 1.0);
    const double scale = rng.UniformInt(4) == 0 ? 1e16 : 1.0;
    (*y)[i] = scale * (rng.UniformInt(2) == 0 ? std::round(4.0 * v) / 4.0 : v);
  }
}

TEST(TreeOracleTest, MatchesPerNodeSortOnTiedAndConstantFeatures) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    const size_t n = 2 + rng.UniformInt(300);
    MakeTiedTable(rng, n, 1 + rng.UniformInt(6), &rows, &y);
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    RegressionTree::Options options;
    options.max_depth = 1 + static_cast<int>(rng.UniformInt(6));
    options.min_samples_leaf = rng.UniformInt(6);
    options.min_samples_split = rng.UniformInt(12);
    ExpectMatchesReference(rows, y, all, options);
  }
}

TEST(TreeOracleTest, MatchesPerNodeSortOnDuplicateUnsortedRowIndices) {
  Rng rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    const size_t n = 1 + rng.UniformInt(200);
    MakeTiedTable(rng, n, 1 + rng.UniformInt(5), &rows, &y);
    // Drawn with replacement, so rows repeat and the order is random.
    std::vector<size_t> indices(1 + rng.UniformInt(2 * n));
    for (size_t& idx : indices) idx = rng.UniformInt(n);
    RegressionTree::Options options;
    options.max_depth = 1 + static_cast<int>(rng.UniformInt(5));
    options.min_samples_leaf = rng.UniformInt(4);
    options.min_samples_split = rng.UniformInt(8);
    ExpectMatchesReference(rows, y, indices, options);
  }
}

TEST(TreeOracleTest, MatchesPerNodeSortAtMinSampleEdges) {
  Rng rng(303);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  const size_t n = 40;
  MakeTiedTable(rng, n, 4, &rows, &y);
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (size_t leaf : {size_t{0}, size_t{1}, size_t{2}, n / 2 - 1, n / 2,
                      n / 2 + 1, n}) {
    for (size_t split : {size_t{0}, size_t{1}, size_t{2}, n - 1, n, n + 1}) {
      SCOPED_TRACE("leaf " + std::to_string(leaf) + " split " +
                   std::to_string(split));
      RegressionTree::Options options;
      options.max_depth = 8;
      options.min_samples_leaf = leaf;
      options.min_samples_split = split;
      ExpectMatchesReference(rows, y, all, options);
    }
  }
}

TEST(TreeOracleTest, MatchesPerNodeSortOnDegenerateSplits) {
  // The midpoint of two adjacent doubles can round up to the larger one,
  // and the midpoint of two huge values overflows to +inf; either way every
  // row goes left and the node must stay a leaf.
  const double below_one = std::nextafter(1.0, 0.0);
  const double huge = std::numeric_limits<double>::max();
  for (const auto& [lo, hi] : {std::pair{below_one, 1.0},
                               std::pair{0.75 * huge, huge}}) {
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (int i = 0; i < 20; ++i) {
      rows.push_back({i % 2 == 0 ? lo : hi});
      y.push_back(i % 2 == 0 ? -1.0 : 1.0);
    }
    std::vector<size_t> all(rows.size());
    std::iota(all.begin(), all.end(), 0);
    RegressionTree::Options options;
    options.min_samples_leaf = 1;
    const std::vector<TreeNode> reference =
        ReferenceTree(options).Fit(rows, y, all);
    ASSERT_EQ(reference.size(), 1u);  // The degenerate return was taken.
    ExpectMatchesReference(rows, y, all, options);
  }
  // Mixed in with ordinary values, the degenerate nodes sit deeper.
  Rng rng(404);
  const double values[] = {below_one, 1.0, 0.75 * huge, huge, -huge, 0.0};
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t n = 2 + rng.UniformInt(60);
    std::vector<std::vector<double>> rows(n, std::vector<double>(3));
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      for (double& x : rows[i]) x = values[rng.UniformInt(6)];
      y[i] = rng.Uniform(-1.0, 1.0);
    }
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    RegressionTree::Options options;
    options.max_depth = 6;
    options.min_samples_leaf = rng.UniformInt(3);
    options.min_samples_split = rng.UniformInt(4);
    ExpectMatchesReference(rows, y, all, options);
  }
}

double PredictNodes(const std::vector<TreeNode>& nodes,
                    const std::vector<double>& row) {
  int node = 0;
  while (nodes[static_cast<size_t>(node)].feature >= 0) {
    const TreeNode& cur = nodes[static_cast<size_t>(node)];
    node = row[static_cast<size_t>(cur.feature)] <= cur.threshold ? cur.left
                                                                  : cur.right;
  }
  return nodes[static_cast<size_t>(node)].value;
}

// Boosting shares one presort across its trees; each tree must still match
// the reference fitted on that stage's residuals and subsample.
TEST(TreeOracleTest, BoostedTreesMatchPerNodeSort) {
  Rng data_rng(505);
  for (double subsample : {1.0, 0.7}) {
    SCOPED_TRACE("subsample " + std::to_string(subsample));
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    MakeTiedTable(data_rng, 400, 5, &rows, &y);
    GradientBoostedTrees::Options options;
    options.num_trees = 30;
    options.subsample = subsample;
    GradientBoostedTrees gbm(options);
    ASSERT_TRUE(gbm.Fit(rows, y).ok());
    ASSERT_EQ(gbm.trees().size(), 30u);

    // GradientBoostedTrees::Fit's stage loop, over reference trees.
    std::vector<double> predictions(rows.size(), gbm.base_score());
    std::vector<double> residuals(rows.size());
    Rng rng(options.seed);
    const size_t sample_size = std::max<size_t>(
        1, static_cast<size_t>(subsample * static_cast<double>(rows.size())));
    std::vector<size_t> all(rows.size());
    std::iota(all.begin(), all.end(), 0);
    for (int stage = 0; stage < options.num_trees; ++stage) {
      SCOPED_TRACE("stage " + std::to_string(stage));
      for (size_t i = 0; i < rows.size(); ++i) {
        residuals[i] = y[i] - predictions[i];
      }
      std::vector<size_t> indices;
      if (sample_size >= rows.size()) {
        indices = all;
      } else {
        std::vector<size_t> pool = all;
        for (size_t k = 0; k < sample_size; ++k) {
          const size_t j = k + rng.UniformInt(pool.size() - k);
          std::swap(pool[k], pool[j]);
          indices.push_back(pool[k]);
        }
      }
      const std::vector<TreeNode> reference =
          ReferenceTree(options.tree).Fit(rows, residuals, indices);
      ExpectSameNodes(reference, gbm.trees()[static_cast<size_t>(stage)]
                                     .nodes());
      for (size_t i = 0; i < rows.size(); ++i) {
        predictions[i] +=
            options.learning_rate * PredictNodes(reference, rows[i]);
      }
    }
  }
}

}  // namespace
}  // namespace lossyts::analysis
