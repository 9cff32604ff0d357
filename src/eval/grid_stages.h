#ifndef LOSSYTS_EVAL_GRID_STAGES_H_
#define LOSSYTS_EVAL_GRID_STAGES_H_

#include <memory>
#include <string>

#include "core/metric_registry.h"
#include "core/split.h"
#include "core/status.h"
#include "data/datasets.h"
#include "eval/grid.h"
#include "forecast/forecaster.h"

namespace lossyts::eval {

// The evaluation grid decomposed into four explicit, separately-testable
// stages, wired together by RunGridResumable as a DAG with one node per
// artifact:
//
//   LoadDataset ──┬─> CompressAtBound ──┐
//                 └─> FitModel ─────────┴─> EvaluateCell
//
// Stage outputs are immutable artifacts, each held by its DAG node:
//
//   DatasetArtifact    one per dataset
//   TransformArtifact  one per (dataset, compressor, eb)
//   FitArtifact        one per (dataset, model, seed), with its baseline
//
// so a transform is computed once per (dataset, compressor, bound) and a fit
// once per (dataset, model, seed), shared by every cell that references
// them. Each stage derives any randomness from its identity (the cell seed
// through RetrySeed), never from execution order: running the DAG on one
// thread or sixteen produces bit-identical records.
//
// Failure contract (unchanged from the monolithic RunGrid): a stage failure
// is *data*, not control flow — it is recorded in the artifact's Status and
// turned into failed GridRecords by EvaluateCellStage for exactly the
// dependent cells. Only configuration errors (unknown dataset / model /
// compressor names) abort the whole sweep.

/// Output of the LoadDataset stage: the generated dataset and its
/// chronological train/val/test split. `status` non-OK is a configuration
/// error (unknown name, generation failure) and aborts the sweep.
struct DatasetArtifact {
  Status status;
  data::Dataset dataset;
  TrainValTest split;
};

/// Output of the CompressAtBound stage: one dataset's test split transformed
/// by one (compressor, error bound) pair, plus the compression-side
/// measurements. `status` non-OK means every attempt failed; dependent cells
/// become failed records carrying it.
struct TransformArtifact {
  TimeSeries series;
  double te_nrmse = 0.0;
  double te_rmse = 0.0;
  double compression_ratio = 0.0;
  double segment_count = 0.0;
  Status status;
  int attempts = 1;
  /// True when the artifact was sourced from a chunk store file
  /// (eval/store_source.h) instead of being recompressed. Store-sourced
  /// artifacts carry the *serving* compression ratio (raw gzip bytes over
  /// store file bytes) rather than the pipeline's per-blob gzip ratio.
  bool from_store = false;
};

/// Output of the FitModel stage: a model trained on the raw train/val splits
/// of one (dataset, model, seed), plus the baseline (uncompressed-input)
/// evaluation that every compressed cell's TFE normalizes against. When the
/// baseline row was salvaged from a checkpoint, its metrics are reused and
/// `baseline_salvaged` is set instead of re-evaluating.
struct FitArtifact {
  /// Trained model; nullptr when every attempt failed. Immutable after fit —
  /// Predict() is const, so concurrent EvaluateCell stages share it.
  std::shared_ptr<const forecast::Forecaster> model;
  Status fit_status;
  int fit_attempts = 1;

  // Baseline evaluation (compressor = "NONE"): one value per resolved
  // metric name of the sweep.
  Status baseline_status;
  std::vector<double> baseline_metrics;
  bool baseline_ok = false;
  double baseline_nrmse = 0.0;
  bool baseline_salvaged = false;
};

/// Identity of one grid cell; compressor "NONE" (error_bound 0) is the
/// baseline cell of its (dataset, model, seed) group.
struct CellSpec {
  std::string dataset;
  std::string model;
  std::string compressor;
  double error_bound = 0.0;
  uint64_t seed = 0;

  bool is_baseline() const { return compressor == "NONE"; }
};

/// Stage 1: generate `name` and split it chronologically.
DatasetArtifact LoadDatasetStage(const std::string& name,
                                 const data::DatasetOptions& options);

/// Stage 2: run `compressor_name` at `error_bound` over the test split, with
/// up to `max_attempts` tries. When `store_dir` is non-empty the stage first
/// tries to source the artifact from that directory's chunk store files
/// (eval/store_source.h), falling back to recompression — with a verbose
/// note — when the store is missing, stale, or invalid. Verbose failures are
/// reported through the core progress reporter.
TransformArtifact CompressAtBoundStage(const std::string& dataset_name,
                                       const std::string& compressor_name,
                                       double error_bound,
                                       const TimeSeries& test,
                                       const std::string& store_dir,
                                       int max_attempts, bool verbose);

/// Stage 3: fit `model_name` on the raw splits with per-attempt reseeding
/// (RetrySeed), then evaluate the baseline over `metric_names` (the sweep's
/// resolved metric list) — unless `salvaged_baseline` (a checkpointed
/// "NONE" row for this group) already carries its metrics.
FitArtifact FitModelStage(const std::string& model_name,
                          const DatasetArtifact& dataset,
                          const GridOptions& options, uint64_t seed,
                          const GridRecord* salvaged_baseline,
                          const std::vector<std::string>& metric_names =
                              PinnedForecastMetrics());

/// Stage 4: produce `spec`'s GridRecord from its input artifacts, with one
/// metric value per `metric_names` entry. Baseline cells pass transform =
/// nullptr. Failure precedence matches the monolithic implementation: fit
/// failure poisons the whole group, then a failed transform, then a failed
/// baseline (FailedPrecondition), and only a clean set of inputs reaches
/// EvaluateOnTest. Scaled metrics (MASE) see the dataset's raw train split
/// as their in-sample series.
GridRecord EvaluateCellStage(const CellSpec& spec, const GridOptions& options,
                             const DatasetArtifact& dataset,
                             const FitArtifact& fit,
                             const TransformArtifact* transform,
                             const std::vector<std::string>& metric_names =
                                 PinnedForecastMetrics());

}  // namespace lossyts::eval

#endif  // LOSSYTS_EVAL_GRID_STAGES_H_
