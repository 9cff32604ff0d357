#include "analysis/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace lossyts::analysis {

namespace {

double MeanOf(const std::vector<double>& targets,
              const std::vector<size_t>& indices, size_t begin, size_t end) {
  double sum = 0.0;
  for (size_t k = begin; k < end; ++k) sum += targets[indices[k]];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

Result<SortedColumns> SortedColumns::Build(
    const std::vector<std::vector<double>>& rows) {
  if (rows.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many rows for 32-bit row ids");
  }
  const size_t num_features = rows.empty() ? 0 : rows.front().size();
  for (const std::vector<double>& row : rows) {
    if (row.size() != num_features) {
      return Status::InvalidArgument("feature rows differ in width");
    }
  }
  SortedColumns columns;
  columns.num_rows_ = rows.size();
  columns.values_.resize(num_features * rows.size());
  columns.order_.resize(num_features);
  std::vector<std::pair<double, uint32_t>> keyed(rows.size());
  for (size_t f = 0; f < num_features; ++f) {
    double* column = columns.values_.data() + f * rows.size();
    for (size_t r = 0; r < rows.size(); ++r) {
      column[r] = rows[r][f];
      keyed[r] = {column[r], static_cast<uint32_t>(r)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<uint32_t>& order = columns.order_[f];
    order.resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) order[k] = keyed[k].second;
  }
  return columns;
}

// One tree's split-finding state. Each feature's segment of `rows` holds
// the sampled rows (a row sampled twice appears twice) in ascending
// (x, target) order: the order a sort of (x, target) pairs gives. The node
// [begin, end) owns positions [begin, end) of every segment, and those hold
// the same rows as indices[begin, end).
struct RegressionTree::Segments {
  const SortedColumns& features;
  const std::vector<double>& targets;
  size_t stride;                   ///< Segment length: sampled row count.
  std::vector<uint32_t> rows;      ///< num_features segments of `stride`.
  std::vector<uint8_t> goes_left;  ///< By row id, for the current split.
  std::vector<uint32_t> right;     ///< Partition scratch.
};

Status RegressionTree::Fit(const std::vector<std::vector<double>>& rows,
                           const std::vector<double>& targets,
                           const std::vector<size_t>& row_indices) {
  Result<SortedColumns> columns = SortedColumns::Build(rows);
  if (!columns.ok()) return columns.status();
  return Fit(*columns, targets, row_indices);
}

Status RegressionTree::Fit(const std::vector<std::vector<double>>& rows,
                           const std::vector<double>& targets) {
  std::vector<size_t> all(rows.size());
  std::iota(all.begin(), all.end(), 0);
  return Fit(rows, targets, all);
}

Status RegressionTree::Fit(const SortedColumns& columns,
                           const std::vector<double>& targets,
                           const std::vector<size_t>& row_indices) {
  if (columns.num_rows() != targets.size()) {
    return Status::InvalidArgument("rows and targets size mismatch");
  }
  if (row_indices.empty()) {
    return Status::InvalidArgument("no training rows selected");
  }
  std::vector<uint32_t> multiplicity(columns.num_rows(), 0);
  for (size_t idx : row_indices) {
    if (idx >= columns.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    ++multiplicity[idx];
  }
  const size_t stride = row_indices.size();
  Segments segments{columns,
                    targets,
                    stride,
                    std::vector<uint32_t>(columns.num_features() * stride),
                    std::vector<uint8_t>(columns.num_rows()),
                    std::vector<uint32_t>(stride)};
  for (size_t f = 0; f < columns.num_features(); ++f) {
    const double* x = columns.column(f);
    uint32_t* segment = segments.rows.data() + f * stride;
    size_t k = 0;
    for (uint32_t row : columns.order(f)) {
      for (uint32_t c = 0; c < multiplicity[row]; ++c) segment[k++] = row;
    }
    // The residuals change with every tree, so ties in x are put in target
    // order here rather than once per fit.
    for (size_t run = 0; run < stride;) {
      size_t run_end = run + 1;
      while (run_end < stride && x[segment[run_end]] == x[segment[run]]) {
        ++run_end;
      }
      if (run_end - run > 1) {
        std::sort(segment + run, segment + run_end,
                  [&](uint32_t a, uint32_t b) {
                    return targets[a] < targets[b];
                  });
      }
      run = run_end;
    }
  }
  nodes_.clear();
  std::vector<size_t> indices = row_indices;
  BuildNode(segments, indices, 0, indices.size(), 0);
  return Status::OK();
}

int RegressionTree::BuildNode(Segments& segments,
                              std::vector<size_t>& indices, size_t begin,
                              size_t end, int depth) {
  const std::vector<double>& targets = segments.targets;
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(TreeNode{});
  nodes_[node_id].value = MeanOf(targets, indices, begin, end);
  nodes_[node_id].cover = static_cast<double>(end - begin);

  const size_t n = end - begin;
  if (depth >= options_.max_depth || n < options_.min_samples_split) {
    return node_id;
  }

  // Current sum of squares (for the variance-reduction criterion the
  // constant term cancels; we maximize sum_L^2/n_L + sum_R^2/n_R).
  const size_t num_features = segments.features.num_features();
  double best_gain = -std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;

  for (size_t f = 0; f < num_features; ++f) {
    const double* x = segments.features.column(f);
    const uint32_t* segment =
        segments.rows.data() + f * segments.stride + begin;
    if (x[segment[0]] == x[segment[n - 1]]) continue;

    double total = 0.0;
    for (size_t k = 0; k < n; ++k) total += targets[segment[k]];
    double left_sum = 0.0;
    for (size_t k = 0; k + 1 < n; ++k) {
      left_sum += targets[segment[k]];
      // Only split between distinct feature values.
      const double x_here = x[segment[k]];
      const double x_next = x[segment[k + 1]];
      if (x_here == x_next) continue;
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
        best_threshold = 0.5 * (x_here + x_next);
      }
    }
  }
  if (best_feature < 0) return node_id;

  // Partition indices in place.
  const double* split_x =
      segments.features.column(static_cast<size_t>(best_feature));
  const auto mid_it = std::partition(
      indices.begin() + begin, indices.begin() + end,
      [&](size_t idx) { return split_x[idx] <= best_threshold; });
  const size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;  // Degenerate split.

  // Stable-partition every feature's segment the same way: each child's
  // segments keep their (x, target) order, so no node ever sorts.
  for (size_t k = begin; k < end; ++k) {
    segments.goes_left[indices[k]] = k < mid ? 1 : 0;
  }
  for (size_t f = 0; f < num_features; ++f) {
    uint32_t* segment = segments.rows.data() + f * segments.stride + begin;
    size_t n_left = 0;
    size_t n_right = 0;
    for (size_t k = 0; k < n; ++k) {
      const uint32_t row = segment[k];
      if (segments.goes_left[row]) {
        segment[n_left++] = row;
      } else {
        segments.right[n_right++] = row;
      }
    }
    std::copy_n(segments.right.begin(), n_right, segment + n_left);
  }

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = BuildNode(segments, indices, begin, mid, depth + 1);
  const int right = BuildNode(segments, indices, mid, end, depth + 1);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::Predict(const std::vector<double>& row) const {
  if (nodes_.empty()) return 0.0;
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const TreeNode& cur = nodes_[static_cast<size_t>(node)];
    node = row[static_cast<size_t>(cur.feature)] <= cur.threshold ? cur.left
                                                                  : cur.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

}  // namespace lossyts::analysis
