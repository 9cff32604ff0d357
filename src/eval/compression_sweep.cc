#include "eval/compression_sweep.h"

#include "compress/pipeline.h"
#include "core/progress.h"

namespace lossyts::eval {

namespace {

// Compresses `series` with `compressor_name` at `eb` and appends its record.
Status AddRecord(const std::string& dataset_name, const TimeSeries& series,
                 const std::string& compressor_name, double eb,
                 std::vector<SweepRecord>& records) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(compressor_name);
  if (!compressor.ok()) return compressor.status();
  Result<compress::PipelineResult> result =
      compress::RunPipeline(**compressor, series, eb);
  if (!result.ok()) return result.status();
  SweepRecord& rec = records.emplace_back();
  rec.dataset = dataset_name;
  rec.compressor = compressor_name;
  rec.error_bound = eb;
  rec.te_nrmse = result->te_nrmse;
  rec.te_rmse = result->te_rmse;
  rec.compression_ratio = result->compression_ratio;
  rec.segment_count = static_cast<double>(result->segment_count);
  return Status::OK();
}

}  // namespace

Result<std::vector<SweepRecord>> RunCompressionSweep(
    const SweepOptions& options) {
  const std::vector<std::string>& datasets =
      options.datasets.empty() ? data::DatasetNames() : options.datasets;
  const std::vector<double>& error_bounds =
      options.error_bounds.empty() ? compress::PaperErrorBounds()
                                   : options.error_bounds;

  std::vector<SweepRecord> records;
  for (const std::string& dataset_name : datasets) {
    Result<data::Dataset> dataset =
        data::MakeDataset(dataset_name, options.data);
    if (!dataset.ok()) return dataset.status();
    if (options.verbose) {
      Progress::Printf("[sweep] compressing %s (%zu points)\n",
                       dataset_name.c_str(), dataset->series.size());
    }
    for (const std::string& name : compress::LossyCompressorNames()) {
      for (double eb : error_bounds) {
        if (Status s = AddRecord(dataset_name, dataset->series, name, eb,
                                 records);
            !s.ok()) {
          return s;
        }
      }
    }
    // GORILLA at eb = 0: the lossless baseline.
    if (Status s =
            AddRecord(dataset_name, dataset->series, "GORILLA", 0.0, records);
        !s.ok()) {
      return s;
    }
  }
  return records;
}

}  // namespace lossyts::eval
