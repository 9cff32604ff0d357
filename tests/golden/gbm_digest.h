#ifndef LOSSYTS_TESTS_GOLDEN_GBM_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_GBM_DIGEST_H_

// Deterministic digests of gradient-boosted-tree fits, shared by the golden
// test and the generator that prints its table (gbm_golden_gen.cc). A table
// case's digest is FNV-1a over the base score, every node of every tree
// (feature, threshold bits, left, right, value bits, cover bits) and the
// bits of the predictions on the training rows. The forecaster case digests
// GBoostForecaster's predictions over its test windows.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/gbm.h"
#include "compress/pmc.h"
#include "core/rng.h"
#include "core/split.h"
#include "core/status.h"
#include "data/datasets.h"
#include "forecast/gboost.h"

namespace lossyts::golden {

/// One boosted-tree case: a feature style, a subsample rate and an option
/// set, fitted on a fixed synthetic table.
struct GbmCase {
  const char* name;
  bool tied;  ///< Quantize features to a few levels.
  double subsample;
  int option_set;  ///< 0: forecaster-like trees; 1: deep, minimal leaves.
};

inline const std::vector<GbmCase>& GbmCases() {
  static const std::vector<GbmCase> kCases = {
      {"untied/s1.0/shallow", false, 1.0, 0},
      {"untied/s1.0/deep", false, 1.0, 1},
      {"untied/s0.8/shallow", false, 0.8, 0},
      {"untied/s0.8/deep", false, 0.8, 1},
      {"tied/s1.0/shallow", true, 1.0, 0},
      {"tied/s1.0/deep", true, 1.0, 1},
      {"tied/s0.8/shallow", true, 0.8, 0},
      {"tied/s0.8/deep", true, 0.8, 1},
  };
  return kCases;
}

/// The forecaster case: GBoost on ETTm1 after PMC at eb 0.4.
constexpr const char* kGbmForecasterCase = "forecaster/ETTm1/PMC@0.4";

constexpr uint64_t kGbmFnvOffset = 0xCBF29CE484222325ULL;

template <typename T>
inline uint64_t FnvFold(uint64_t hash, const T& value) {
  uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// 600 rows x 6 features. Targets depend on the raw features; the tied
/// variant rounds features 0-4 to one of 7 levels and makes feature 5
/// constant, so many rows share x but not y, as lag features do after PMC's
/// constant segments.
inline void MakeGbmTable(bool tied, std::vector<std::vector<double>>* rows,
                         std::vector<double>* targets) {
  constexpr size_t kRows = 600;
  constexpr size_t kFeatures = 6;
  Rng rng(tied ? 17 : 13);
  rows->assign(kRows, std::vector<double>(kFeatures));
  targets->assign(kRows, 0.0);
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<double>& x = (*rows)[i];
    for (size_t f = 0; f < kFeatures; ++f) x[f] = rng.Uniform(-1.0, 1.0);
    (*targets)[i] = std::sin(2.0 * x[0]) + x[1] * x[2] + 0.5 * x[3] +
                    0.2 * rng.Uniform(-1.0, 1.0);
    if (tied) {
      for (size_t f = 0; f + 1 < kFeatures; ++f) {
        x[f] = std::round(3.0 * x[f]) / 3.0;
      }
      x[kFeatures - 1] = 0.25;
    }
  }
}

inline analysis::GradientBoostedTrees::Options GbmOptions(
    const GbmCase& c) {
  analysis::GradientBoostedTrees::Options options;
  options.subsample = c.subsample;
  if (c.option_set == 0) {
    options.num_trees = 40;
    options.learning_rate = 0.1;
    options.tree.max_depth = 3;
    options.tree.min_samples_leaf = 5;
    options.tree.min_samples_split = 10;
  } else {
    options.num_trees = 25;
    options.learning_rate = 0.3;
    options.seed = 11;
    options.tree.max_depth = 6;
    options.tree.min_samples_leaf = 1;
    options.tree.min_samples_split = 2;
  }
  return options;
}

inline Result<uint64_t> ComputeGbmDigest(const GbmCase& c) {
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  MakeGbmTable(c.tied, &rows, &targets);
  analysis::GradientBoostedTrees gbm(GbmOptions(c));
  if (Status s = gbm.Fit(rows, targets); !s.ok()) return s;
  uint64_t hash = FnvFold(kGbmFnvOffset, gbm.base_score());
  for (const analysis::RegressionTree& tree : gbm.trees()) {
    for (const analysis::TreeNode& node : tree.nodes()) {
      hash = FnvFold(hash, node.feature);
      hash = FnvFold(hash, node.threshold);
      hash = FnvFold(hash, node.left);
      hash = FnvFold(hash, node.right);
      hash = FnvFold(hash, node.value);
      hash = FnvFold(hash, node.cover);
    }
  }
  for (const std::vector<double>& row : rows) {
    hash = FnvFold(hash, gbm.Predict(row));
  }
  return hash;
}

/// Fits GBoostForecaster on the PMC reconstruction (eb 0.4) of ETTm1's
/// training split and folds its forecasts for every horizon-strided window
/// of the reconstructed test split.
inline Result<uint64_t> ComputeGbmForecasterDigest() {
  data::DatasetOptions data_options;
  data_options.length_fraction = 0.05;
  Result<data::Dataset> dataset = data::MakeDataset("ETTm1", data_options);
  if (!dataset.ok()) return dataset.status();
  const compress::PmcCompressor pmc;
  Result<std::vector<uint8_t>> blob = pmc.Compress(dataset->series, 0.4);
  if (!blob.ok()) return blob.status();
  Result<TimeSeries> decoded = pmc.Decompress(*blob);
  if (!decoded.ok()) return decoded.status();
  Result<TrainValTest> split = SplitSeries(*decoded);
  if (!split.ok()) return split.status();

  forecast::ForecastConfig config;
  config.season_length = dataset->season_length;
  forecast::GBoostForecaster model(config);
  if (Status s = model.Fit(split->train, split->val); !s.ok()) return s;
  uint64_t hash = kGbmFnvOffset;
  const std::vector<double>& test = split->test.values();
  for (size_t start = 0; start + config.input_length <= test.size();
       start += config.horizon) {
    const auto first = test.begin() + static_cast<std::ptrdiff_t>(start);
    const std::vector<double> window(
        first, first + static_cast<std::ptrdiff_t>(config.input_length));
    Result<std::vector<double>> forecast = model.Predict(window);
    if (!forecast.ok()) return forecast.status();
    for (double v : *forecast) hash = FnvFold(hash, v);
  }
  return hash;
}

/// The digest of the named case: one of GbmCases() or kGbmForecasterCase.
inline Result<uint64_t> ComputeGbmDigest(const std::string& name) {
  if (name == kGbmForecasterCase) return ComputeGbmForecasterDigest();
  for (const GbmCase& c : GbmCases()) {
    if (name == c.name) return ComputeGbmDigest(c);
  }
  return Status::NotFound("no GBM golden case " + name);
}

/// Every case name, table cases first.
inline std::vector<std::string> GbmCaseNames() {
  std::vector<std::string> names;
  for (const GbmCase& c : GbmCases()) names.push_back(c.name);
  names.push_back(kGbmForecasterCase);
  return names;
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_GBM_DIGEST_H_
