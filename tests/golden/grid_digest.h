#ifndef LOSSYTS_TESTS_GOLDEN_GRID_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_GRID_DIGEST_H_

// Deterministic digests of evaluation-grid output, shared by the golden test
// and the generator that prints its table (grid_golden_gen.cc). One small
// grid (ETTm1 and Solar x GBoost and DLinear x PMC, SWING and SZ at 0.05 and
// 0.4 x seeds 1 and 2) runs in three variants: on one thread, on four, and on
// one thread with every train_step failing, so DLinear's failed rows are
// pinned too. That last variant stays on one thread because a failed row's
// message carries the failpoint's process-wide hit number, which follows the
// order in which the fits run. A row's digest is FNV-1a over the FormatGridRow bytes (each followed
// by '\n') of one (dataset, model) group of a variant's records, in return
// order; a variant's "all" row folds every record, so it pins the order of
// the groups as well.
//
// Only GBoost and DLinear run: their records do not move when glibc's libm
// takes its non-FMA code paths, while GRU's do.

#include <cstdint>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "core/status.h"
#include "eval/grid.h"

namespace lossyts::golden {

/// One way of running the grid.
struct GridVariant {
  const char* name;
  int jobs;
  bool fail_train_steps;  ///< Arm train_step over an all-hits window.
};

inline const std::vector<GridVariant>& GridVariants() {
  static const std::vector<GridVariant> kVariants = {
      {"jobs1", 1, false},
      {"jobs4", 4, false},
      {"jobs1/train_step", 1, true},
  };
  return kVariants;
}

inline eval::GridOptions GoldenGridOptions(int jobs) {
  eval::GridOptions options;
  options.datasets = {"ETTm1", "Solar"};
  options.models = {"GBoost", "DLinear"};
  options.compressors = {"PMC", "SWING", "SZ"};
  options.error_bounds = {0.05, 0.4};
  options.seeds = {1, 2};
  options.data.length_fraction = 0.02;
  options.forecast.input_length = 48;
  options.forecast.horizon = 12;
  options.forecast.max_epochs = 3;
  options.forecast.max_train_windows = 48;
  options.scenario.max_eval_windows = 16;
  options.jobs = jobs;
  return options;
}

constexpr uint64_t kGridFnvOffset = 0xCBF29CE484222325ULL;

inline uint64_t FnvFoldBytes(uint64_t hash, const std::string& bytes) {
  for (unsigned char b : bytes) {
    hash ^= b;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// One golden row: a variant's (dataset, model) group and its digest.
struct GridDigestRow {
  std::string name;  ///< "<variant>/<dataset>/<model>" or "<variant>/all".
  uint64_t digest;
};

/// Runs `variant` and digests its records per (dataset, model) group, in
/// GoldenGridOptions' dataset-then-model order, then all of them.
inline Result<std::vector<GridDigestRow>> ComputeGridDigests(
    const GridVariant& variant) {
  const eval::GridOptions options = GoldenGridOptions(variant.jobs);
  if (variant.fail_train_steps) FailPoints::Arm("train_step", 1, 1000000000);
  Result<std::vector<eval::GridRecord>> records = eval::RunGrid(options);
  FailPoints::DisarmAll();
  if (!records.ok()) return records.status();
  std::vector<GridDigestRow> rows;
  for (const std::string& dataset : options.datasets) {
    for (const std::string& model : options.models) {
      uint64_t hash = kGridFnvOffset;
      for (const eval::GridRecord& r : *records) {
        if (r.dataset != dataset || r.model != model) continue;
        hash = FnvFoldBytes(hash, eval::FormatGridRow(r) + '\n');
      }
      rows.push_back(
          {std::string(variant.name) + '/' + dataset + '/' + model, hash});
    }
  }
  uint64_t all = kGridFnvOffset;
  for (const eval::GridRecord& r : *records) {
    all = FnvFoldBytes(all, eval::FormatGridRow(r) + '\n');
  }
  rows.push_back({std::string(variant.name) + "/all", all});
  return rows;
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_GRID_DIGEST_H_
