#include "analysis/gbm.h"

#include <algorithm>
#include <numeric>

namespace lossyts::analysis {

Status GradientBoostedTrees::Fit(const std::vector<std::vector<double>>& rows,
                                 const std::vector<double>& targets) {
  if (rows.empty() || rows.size() != targets.size()) {
    return Status::InvalidArgument("rows/targets mismatch or empty");
  }
  if (options_.num_trees <= 0 || options_.learning_rate <= 0.0 ||
      options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("invalid boosting options");
  }

  // Sorted once here; each stage's tree only filters the order to its rows.
  Result<SortedColumns> columns = SortedColumns::Build(rows);
  if (!columns.ok()) return columns.status();

  trees_.clear();
  base_score_ = 0.0;
  for (double t : targets) base_score_ += t;
  base_score_ /= static_cast<double>(targets.size());

  std::vector<double> predictions(rows.size(), base_score_);
  std::vector<double> residuals(rows.size());
  Rng rng(options_.seed);

  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(options_.subsample *
                             static_cast<double>(rows.size())));
  std::vector<size_t> all_indices(rows.size());
  std::iota(all_indices.begin(), all_indices.end(), 0);

  for (int stage = 0; stage < options_.num_trees; ++stage) {
    for (size_t i = 0; i < rows.size(); ++i) {
      residuals[i] = targets[i] - predictions[i];
    }
    std::vector<size_t> indices;
    if (sample_size >= rows.size()) {
      indices = all_indices;
    } else {
      // Partial Fisher-Yates for an unbiased subsample.
      std::vector<size_t> pool = all_indices;
      indices.reserve(sample_size);
      for (size_t k = 0; k < sample_size; ++k) {
        const size_t j = k + rng.UniformInt(pool.size() - k);
        std::swap(pool[k], pool[j]);
        indices.push_back(pool[k]);
      }
    }
    RegressionTree tree(options_.tree);
    if (Status s = tree.Fit(*columns, residuals, indices); !s.ok()) return s;
    for (size_t i = 0; i < rows.size(); ++i) {
      predictions[i] += options_.learning_rate * tree.Predict(rows[i]);
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double GradientBoostedTrees::Predict(const std::vector<double>& row) const {
  double pred = base_score_;
  for (const RegressionTree& tree : trees_) {
    pred += options_.learning_rate * tree.Predict(row);
  }
  return pred;
}

}  // namespace lossyts::analysis
