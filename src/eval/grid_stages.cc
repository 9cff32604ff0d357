#include "eval/grid_stages.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "compress/pipeline.h"
#include "core/progress.h"
#include "core/split.h"
#include "forecast/registry.h"
#include "eval/scenario.h"
#include "eval/store_source.h"

namespace lossyts::eval {

namespace {

bool MetricsFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

GridRecord FailedCell(const CellSpec& spec, const Status& status,
                      int attempts, size_t metric_arity) {
  GridRecord record;
  record.dataset = spec.dataset;
  record.model = spec.model;
  record.compressor = spec.compressor;
  record.error_bound = spec.error_bound;
  record.seed = spec.seed;
  record.metrics.assign(metric_arity, 0.0);
  record.error_code = static_cast<int32_t>(status.code());
  record.error = status.message();
  record.attempts = attempts;
  return record;
}

/// The metric request every grid evaluation shares: scaled metrics (MASE)
/// see the raw train split as their in-sample series, labeled with the
/// dataset name for error messages.
MetricRequest CellMetricRequest(const std::vector<std::string>& metric_names,
                                const DatasetArtifact& dataset) {
  MetricRequest request;
  request.names = metric_names;
  request.insample = &dataset.split.train.values();
  // season_length 0 means "no dominant season"; MASE then scales by the
  // lag-1 naive forecast.
  request.season_length =
      std::max(1, static_cast<int>(dataset.dataset.season_length));
  request.series = dataset.dataset.name;
  return request;
}

}  // namespace

DatasetArtifact LoadDatasetStage(const std::string& name,
                                 const data::DatasetOptions& options) {
  DatasetArtifact artifact;
  Result<data::Dataset> dataset = data::MakeDataset(name, options);
  if (!dataset.ok()) {
    artifact.status = dataset.status();
    return artifact;
  }
  Result<TrainValTest> split = SplitSeries(dataset->series);
  if (!split.ok()) {
    artifact.status = split.status();
    return artifact;
  }
  artifact.status = Status::OK();
  artifact.dataset = std::move(*dataset);
  artifact.split = std::move(*split);
  return artifact;
}

TransformArtifact CompressAtBoundStage(const std::string& dataset_name,
                                       const std::string& compressor_name,
                                       double error_bound,
                                       const TimeSeries& test,
                                       const std::string& store_dir,
                                       int max_attempts, bool verbose) {
  TransformArtifact out;
  if (!store_dir.empty()) {
    Result<TransformArtifact> stored = LoadTransformFromStore(
        store_dir, dataset_name, compressor_name, error_bound, test);
    if (stored.ok()) return std::move(*stored);
    // A missing/stale/corrupt store degrades to recompression: the sweep
    // still completes, just without the storage-sourced artifact.
    if (verbose) {
      Progress::Printf("[grid] store source %s eb=%g on %s unavailable (%s); "
                       "recompressing\n",
                       compressor_name.c_str(), error_bound,
                       dataset_name.c_str(),
                       stored.status().ToString().c_str());
    }
  }
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(compressor_name);
  if (!compressor.ok()) {
    // Unknown compressor names are pre-validated by RunGridResumable, so
    // this is unreachable there; standalone callers see it as a failed
    // transform.
    out.status = compressor.status();
    return out;
  }
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    Result<compress::PipelineResult> pipeline =
        compress::RunPipeline(**compressor, test, error_bound);
    if (!pipeline.ok()) {
      out.status = pipeline.status();
      continue;
    }
    if (!std::isfinite(pipeline->te_nrmse) ||
        !std::isfinite(pipeline->te_rmse) ||
        !std::isfinite(pipeline->compression_ratio)) {
      out.status = Status::Internal("non-finite transform metrics");
      continue;
    }
    out.status = Status::OK();
    out.series = std::move(pipeline->decompressed);
    out.te_nrmse = pipeline->te_nrmse;
    out.te_rmse = pipeline->te_rmse;
    out.compression_ratio = pipeline->compression_ratio;
    out.segment_count = static_cast<double>(pipeline->segment_count);
    break;
  }
  if (!out.status.ok() && verbose) {
    Progress::Printf("[grid] transform %s eb=%g on %s failed: %s\n",
                     compressor_name.c_str(), error_bound,
                     dataset_name.c_str(), out.status.ToString().c_str());
  }
  return out;
}

FitArtifact FitModelStage(const std::string& model_name,
                          const DatasetArtifact& dataset,
                          const GridOptions& options, uint64_t seed,
                          const GridRecord* salvaged_baseline,
                          const std::vector<std::string>& metric_names) {
  FitArtifact artifact;
  const int max_attempts = 1 + std::max(0, options.max_cell_retries);

  // Fit with retry: each retry derives a fresh deterministic seed from the
  // cell identity, so a divergent initialization gets a genuinely different
  // start while reruns of the sweep retry identically.
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    artifact.fit_attempts = attempt + 1;
    forecast::ForecastConfig config = options.forecast;
    config.season_length = dataset.dataset.season_length;
    config.seed = RetrySeed(seed, attempt);
    Result<std::unique_ptr<forecast::Forecaster>> made =
        forecast::MakeForecaster(model_name, config);
    if (!made.ok()) {
      // Unknown model names are pre-validated by RunGridResumable, so this
      // is unreachable there; standalone callers see it as a failed fit.
      artifact.fit_status = made.status();
      return artifact;
    }
    if (options.verbose) {
      Progress::Printf("[grid] fitting %s on %s (seed %llu%s)\n",
                       model_name.c_str(), dataset.dataset.name.c_str(),
                       static_cast<unsigned long long>(seed),
                       attempt > 0 ? ", retry" : "");
    }
    artifact.fit_status = (*made)->Fit(dataset.split.train, dataset.split.val);
    if (artifact.fit_status.ok()) {
      artifact.model = std::move(*made);
      break;
    }
    if (options.verbose) {
      Progress::Printf("[grid] fit %s on %s failed: %s\n", model_name.c_str(),
                       dataset.dataset.name.c_str(),
                       artifact.fit_status.ToString().c_str());
    }
  }
  if (!artifact.fit_status.ok()) return artifact;

  // Baseline: reuse the salvaged row's metrics when present (TFE needs its
  // NRMSE), otherwise evaluate on the raw test split.
  if (salvaged_baseline != nullptr) {
    artifact.baseline_salvaged = true;
    artifact.baseline_ok = !salvaged_baseline->failed();
    artifact.baseline_nrmse = salvaged_baseline->nrmse();
    return artifact;
  }
  Result<std::vector<double>> baseline = EvaluateOnTest(
      *artifact.model, dataset.split.test, nullptr,
      options.forecast.input_length, options.forecast.horizon,
      CellMetricRequest(metric_names, dataset), options.scenario);
  artifact.baseline_status =
      baseline.ok() ? (MetricsFinite(*baseline)
                           ? Status::OK()
                           : Status::Internal("non-finite baseline metrics"))
                    : baseline.status();
  if (artifact.baseline_status.ok()) {
    artifact.baseline_metrics = *baseline;
    artifact.baseline_ok = true;
    artifact.baseline_nrmse = (*baseline)[kMetricNrmse];
  }
  return artifact;
}

GridRecord EvaluateCellStage(const CellSpec& spec, const GridOptions& options,
                             const DatasetArtifact& dataset,
                             const FitArtifact& fit,
                             const TransformArtifact* transform,
                             const std::vector<std::string>& metric_names) {
  const size_t arity = metric_names.size();
  // A failed fit poisons every cell of its (dataset, model, seed) group.
  if (!fit.fit_status.ok()) {
    return FailedCell(spec, fit.fit_status, fit.fit_attempts, arity);
  }

  if (spec.is_baseline()) {
    if (!fit.baseline_status.ok()) {
      return FailedCell(spec, fit.baseline_status, fit.fit_attempts, arity);
    }
    GridRecord record;
    record.dataset = spec.dataset;
    record.model = spec.model;
    record.compressor = "NONE";
    record.seed = spec.seed;
    record.metrics = fit.baseline_metrics;
    record.attempts = fit.fit_attempts;
    return record;
  }

  Status cell_status = transform->status;
  int cell_attempts = transform->attempts;
  if (cell_status.ok() && !fit.baseline_ok) {
    cell_status = Status::FailedPrecondition("baseline evaluation failed for " +
                                             spec.model);
    cell_attempts = 1;
  }
  std::vector<double> metrics;
  if (cell_status.ok()) {
    Result<std::vector<double>> evaluated = EvaluateOnTest(
        *fit.model, dataset.split.test, &transform->series,
        options.forecast.input_length, options.forecast.horizon,
        CellMetricRequest(metric_names, dataset), options.scenario);
    if (!evaluated.ok()) {
      cell_status = evaluated.status();
    } else if (!MetricsFinite(*evaluated)) {
      cell_status = Status::Internal("non-finite cell metrics");
    } else {
      metrics = std::move(*evaluated);
    }
  }
  if (!cell_status.ok()) {
    return FailedCell(spec, cell_status, cell_attempts, arity);
  }

  GridRecord record;
  record.dataset = spec.dataset;
  record.model = spec.model;
  record.compressor = spec.compressor;
  record.error_bound = spec.error_bound;
  record.seed = spec.seed;
  record.tfe = Tfe(metrics[kMetricNrmse], fit.baseline_nrmse);
  record.metrics = std::move(metrics);
  record.te_nrmse = transform->te_nrmse;
  record.te_rmse = transform->te_rmse;
  record.compression_ratio = transform->compression_ratio;
  record.segment_count = transform->segment_count;
  record.attempts = cell_attempts;
  return record;
}

}  // namespace lossyts::eval
