#ifndef LOSSYTS_EVAL_GRID_H_
#define LOSSYTS_EVAL_GRID_H_

#include <functional>
#include <string>
#include <vector>

#include "core/metric_registry.h"
#include "core/status.h"
#include "data/datasets.h"
#include "eval/scenario.h"
#include "forecast/forecaster.h"

namespace lossyts::eval {

/// One row of the evaluation grid: a (dataset, model, seed, compressor,
/// error bound) cell with its forecasting metrics, the compression-side
/// measurements of that cell, and the TFE against the same model+seed's raw
/// baseline. Baseline rows carry compressor = "NONE" and error_bound = 0.
///
/// A cell that could not be computed (compressor error, failed fit,
/// non-finite metrics) stays in the record stream as a *failed* row: its
/// metrics are zero, `error_code` carries the StatusCode of the final
/// attempt and `error` its message. Failed rows make partial sweeps explicit
/// and give checkpoint/resume a complete cell inventory.
struct GridRecord {
  std::string dataset;
  std::string model;
  std::string compressor;
  double error_bound = 0.0;
  uint64_t seed = 0;

  /// Forecasting accuracy (predictions vs. raw targets), one value per
  /// resolved metric name of the sweep (ResolveMetricNames: the pinned
  /// R/RSE/RMSE/NRMSE first, then any extras). Failed cells keep the
  /// sweep's arity, zero-filled.
  std::vector<double> metrics = std::vector<double>(4, 0.0);

  /// Value at a metric index, 0 when the record predates that metric.
  double metric(size_t index) const {
    return index < metrics.size() ? metrics[index] : 0.0;
  }
  // The pinned paper metrics by their fixed indices.
  double r() const { return metric(kMetricR); }
  double rse() const { return metric(kMetricRse); }
  double rmse() const { return metric(kMetricRmse); }
  double nrmse() const { return metric(kMetricNrmse); }

  /// TFE computed on NRMSE (Definition 9); 0 for baseline rows.
  double tfe = 0.0;

  // Compression-side measurements on the test split (0 for baseline rows).
  double te_nrmse = 0.0;
  double te_rmse = 0.0;
  double compression_ratio = 0.0;
  double segment_count = 0.0;

  // Fault-tolerance bookkeeping.
  int32_t error_code = 0;  ///< StatusCode of the failure; 0 for ok cells.
  int32_t attempts = 1;    ///< Fit/transform attempts consumed (1 = first try).
  std::string error;       ///< Failure message; empty for ok cells.

  bool failed() const { return error_code != 0; }
};

/// Full-sweep configuration. Defaults reproduce the paper's grid at
/// laptop-scale: all six datasets, all seven models, PMC/SWING/SZ at the 13
/// §3.2 error bounds, with scaled-down series and window budgets.
struct GridOptions {
  std::vector<std::string> datasets;     // Empty = all six.
  std::vector<std::string> models;       // Empty = all seven.
  std::vector<std::string> compressors;  // Empty = PMC, SWING, SZ.
  std::vector<double> error_bounds;      // Empty = the paper's 13 bounds.
  std::vector<uint64_t> seeds = {1};
  /// Extra metric names computed per cell beyond the pinned four (registry
  /// names, e.g. "mae", "smape", "pinball@0.9"; see core/metric_registry.h).
  /// Resolved through ResolveMetricNames, so duplicates of the pinned four
  /// are dropped. Metrics needing prediction intervals (coverage) are
  /// rejected — the grid produces point forecasts only. Participates in
  /// GridOptionsHash only when non-empty, so pre-existing caches keep their
  /// hashes.
  std::vector<std::string> metrics;
  data::DatasetOptions data;
  forecast::ForecastConfig forecast;
  ScenarioOptions scenario;
  bool verbose = false;  ///< Progress lines on stderr (mutex-guarded).
  /// When non-empty, CompressAtBound stages source their transform artifacts
  /// from the chunk store files under this directory (see
  /// eval/store_source.h), falling back to recompression per combination
  /// when the store is missing or invalid. Participates in GridOptionsHash
  /// (only when set, so caches from before this option keep their hashes).
  std::string store_dir;
  /// Extra attempts after a failed fit or compression transform. Retried
  /// fits run with RetrySeed()-derived seeds so a divergent initialization
  /// does not permanently kill the cell; the record keeps the original seed
  /// as its identity. 0 disables retries.
  int max_cell_retries = 1;
  /// Worker threads for the stage DAG (see grid_stages.h). 1 (the default)
  /// executes inline on the calling thread; 0 resolves to the hardware
  /// concurrency. The produced records are bit-identical for every value —
  /// each stage's randomness derives from its cell identity, never from
  /// scheduling — and jobs is excluded from GridOptionsHash, so checkpoints
  /// written at any parallelism resume at any other.
  int jobs = 1;

  GridOptions() { data.length_fraction = 0.05; }
};

/// Identity of one cell inside a sweep ("dataset|model|compressor|eb|seed");
/// checkpoint/resume keys records by this string.
std::string CellKey(const GridRecord& record);

/// Seed used for retry `attempt` (0-based) of a cell whose identity seed is
/// `seed`. Attempt 0 is the identity seed itself; later attempts derive a
/// deterministic reseed so reruns of a sweep retry identically.
uint64_t RetrySeed(uint64_t seed, int attempt);

/// Runs Algorithm 1 over the whole grid as an artifact-keyed stage DAG
/// (LoadDataset -> CompressAtBound -> FitModel -> EvaluateCell, see
/// grid_stages.h) on a work-stealing pool of GridOptions::jobs threads: per
/// dataset, the test split is transformed once per (compressor, error
/// bound); per model and seed, one fit is trained on the raw train/val
/// splits and shared — via the artifact store — by every cell that
/// references it. Records are returned in canonical cell order regardless
/// of completion order.
///
/// Failures are isolated per cell: a failed transform, fit or evaluation is
/// retried (per GridOptions::max_cell_retries) and then recorded as a failed
/// GridRecord without aborting sibling cells. Only configuration errors
/// (unknown dataset/model/compressor names, unloadable datasets) abort the
/// sweep, since every cell they touch would fail identically; with jobs > 1
/// the first such error in canonical order is reported.
Result<std::vector<GridRecord>> RunGrid(const GridOptions& options);

/// Resumable core of RunGrid. Cells whose CellKey appears in `existing` are
/// not recomputed; their salvaged records are spliced into the output at
/// their canonical grid position (failed salvaged cells are kept as failed —
/// a checkpointed failure already consumed its retries). `on_record`, when
/// non-null, observes every *freshly computed* record as it is produced (the
/// checkpoint writer's append hook); calls are serialized through a
/// single-writer channel, in completion order — canonical order at jobs = 1,
/// unspecified otherwise (resume re-orders by CellKey, so checkpoints do not
/// depend on it); a non-OK return aborts the sweep.
Result<std::vector<GridRecord>> RunGridResumable(
    const GridOptions& options, const std::vector<GridRecord>& existing,
    const std::function<Status(const GridRecord&)>& on_record);

/// Pointers to the failed rows of a sweep, for failure reports.
std::vector<const GridRecord*> FailedRecords(
    const std::vector<GridRecord>& records);

/// One record as a CSV row (no newline), the payload of a CRC-framed
/// checkpoint line (see checkpoint.h), and its inverse. The row
/// self-describes its metric arity with an `m<N>` marker field after the
/// seed, followed by the N metric values and the fixed tail columns. Any
/// other layout is Corruption.
std::string FormatGridRow(const GridRecord& record);
Result<GridRecord> ParseGridRow(const std::string& row);

/// Loads `path` if present, otherwise runs the grid and saves it. The cache
/// is a CRC-framed checkpoint (see checkpoint.h): rows are appended as they
/// are produced, and a partial or torn cache — e.g. after a crash — is
/// salvaged and resumed, recomputing only the missing cells. A file that
/// cannot be resumed (written for different GridOptions or metrics, or not
/// a v2 checkpoint at all) is recomputed and overwritten. Records come back
/// in canonical cell order whether they were loaded or computed, so callers
/// see the same sequence either way.
Result<std::vector<GridRecord>> LoadOrRunGrid(const GridOptions& options,
                                              const std::string& path);

/// The canonical cache location used by all bench binaries.
std::string DefaultGridCachePath();

}  // namespace lossyts::eval

#endif  // LOSSYTS_EVAL_GRID_H_
