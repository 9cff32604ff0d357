#ifndef LOSSYTS_ANALYSIS_TREE_H_
#define LOSSYTS_ANALYSIS_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"

namespace lossyts::analysis {

/// One node of a binary regression tree, stored in a flat array.
struct TreeNode {
  int feature = -1;        ///< Split feature index; -1 marks a leaf.
  double threshold = 0.0;  ///< Go left when x[feature] <= threshold.
  int left = -1;
  int right = -1;
  double value = 0.0;      ///< Leaf prediction (mean of training targets).
  double cover = 0.0;      ///< Number of training rows that reached the node.
};

/// Row-major features copied column-major, with each column's row ids
/// sorted by value once. A boosting fit builds one and shares it with all of
/// its trees, so no tree node ever sorts: split finding scans presorted
/// columns (the exact-greedy method of XGBoost, Chen & Guestrin 2016).
class SortedColumns {
 public:
  /// Fails with InvalidArgument when the rows differ in width.
  static Result<SortedColumns> Build(
      const std::vector<std::vector<double>>& rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return order_.size(); }
  /// The feature's values, indexed by row id.
  const double* column(size_t feature) const {
    return values_.data() + feature * num_rows_;
  }
  /// The feature's row ids by ascending value; tied rows in no set order.
  const std::vector<uint32_t>& order(size_t feature) const {
    return order_[feature];
  }

 private:
  size_t num_rows_ = 0;
  std::vector<double> values_;  ///< Column-major.
  std::vector<std::vector<uint32_t>> order_;
};

/// CART-style regression tree with variance-reduction splits. The flat node
/// array (with per-node cover counts) is exactly what the TreeSHAP
/// conditional expectations need, so it is part of the public surface.
class RegressionTree {
 public:
  struct Options {
    int max_depth = 3;
    size_t min_samples_leaf = 5;
    size_t min_samples_split = 10;
  };

  RegressionTree() = default;
  explicit RegressionTree(const Options& options) : options_(options) {}

  /// Fits on row-major features (rows[i] is one observation). `row_indices`
  /// selects the training subset (used for gradient-boosting subsampling);
  /// a row listed twice counts twice. Fails on ragged rows.
  Status Fit(const std::vector<std::vector<double>>& rows,
             const std::vector<double>& targets,
             const std::vector<size_t>& row_indices);

  /// Fits on features already presorted by column; the same tree as the
  /// row-major overload.
  Status Fit(const SortedColumns& columns, const std::vector<double>& targets,
             const std::vector<size_t>& row_indices);

  /// Convenience Fit over all rows.
  Status Fit(const std::vector<std::vector<double>>& rows,
             const std::vector<double>& targets);

  double Predict(const std::vector<double>& row) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  bool fitted() const { return !nodes_.empty(); }

 private:
  struct Segments;

  int BuildNode(Segments& segments, std::vector<size_t>& indices,
                size_t begin, size_t end, int depth);

  Options options_;
  std::vector<TreeNode> nodes_;
};

}  // namespace lossyts::analysis

#endif  // LOSSYTS_ANALYSIS_TREE_H_
