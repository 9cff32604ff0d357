#include "eval/store_source.h"

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>

#include "compress/pipeline.h"
#include "compress/segment_model.h"
#include "core/metrics.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace lossyts::eval {

namespace {

std::string FormatBound(double error_bound) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", error_bound);
  return buffer;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("cannot create directory " + dir);
}

}  // namespace

std::string TransformStorePath(const std::string& dir,
                               const std::string& dataset,
                               const std::string& compressor,
                               double error_bound) {
  return dir + "/" + dataset + "_" + compressor + "_eb" +
         FormatBound(error_bound) + ".lts";
}

Status BuildTransformStores(const GridOptions& options,
                            const std::string& dir) {
  if (Status s = EnsureDir(dir); !s.ok()) return s;
  const std::vector<std::string>& datasets =
      options.datasets.empty() ? data::DatasetNames() : options.datasets;
  const std::vector<std::string>& compressors =
      options.compressors.empty() ? compress::LossyCompressorNames()
                                  : options.compressors;
  const std::vector<double>& error_bounds =
      options.error_bounds.empty() ? compress::PaperErrorBounds()
                                   : options.error_bounds;

  for (const std::string& dataset_name : datasets) {
    DatasetArtifact dataset = LoadDatasetStage(dataset_name, options.data);
    if (!dataset.status.ok()) return dataset.status;
    for (const std::string& compressor_name : compressors) {
      for (double eb : error_bounds) {
        store::StoreOptions store_options;
        store_options.error_bound = eb;
        store_options.codecs = {compressor_name};
        const std::string path =
            TransformStorePath(dir, dataset_name, compressor_name, eb);
        Result<std::unique_ptr<store::StoreWriter>> writer =
            store::StoreWriter::Create(path, store_options);
        if (!writer.ok()) return writer.status();
        if (Status s = (*writer)->Append(dataset.split.test); !s.ok()) {
          return s;
        }
        if (Status s = (*writer)->Finish(); !s.ok()) return s;
      }
    }
  }
  return Status::OK();
}

Result<TransformArtifact> LoadTransformFromStore(
    const std::string& dir, const std::string& dataset_name,
    const std::string& compressor_name, double error_bound,
    const TimeSeries& test) {
  const std::string path =
      TransformStorePath(dir, dataset_name, compressor_name, error_bound);
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::Open(path);
  if (!opened.ok()) return opened.status();
  const store::StoreReader& reader = **opened;

  if (!reader.clean()) {
    return Status::FailedPrecondition(
        path + " is a salvaged (incomplete) store; refusing to source from "
               "it");
  }
  // The store must have been built for exactly this request: same bound
  // (bit-equal — both sides come from the same parsed double), a
  // single-codec list naming this compressor, and the test split's grid.
  if (reader.header().error_bound != error_bound) {
    return Status::FailedPrecondition(
        path + " was built at bound " +
        std::to_string(reader.header().error_bound) + ", requested " +
        std::to_string(error_bound));
  }
  if (reader.header().codecs.size() != 1 ||
      reader.header().codecs[0] != compressor_name) {
    return Status::FailedPrecondition(path +
                                      " was built with a different codec "
                                      "list than the requested compressor");
  }
  if (reader.total_points() != test.size() ||
      reader.start_timestamp() != test.start_timestamp() ||
      reader.interval_seconds() != test.interval_seconds()) {
    return Status::FailedPrecondition(
        path + " does not cover the requested test split (stale store?)");
  }

  Result<TimeSeries> series = reader.ReadAll();
  if (!series.ok()) return series.status();

  TransformArtifact artifact;
  Result<double> te_rmse = Rmse(test.values(), series->values());
  if (!te_rmse.ok()) return te_rmse.status();
  Result<double> te_nrmse = Nrmse(test.values(), series->values());
  if (!te_nrmse.ok()) return te_nrmse.status();
  artifact.te_rmse = *te_rmse;
  artifact.te_nrmse = *te_nrmse;
  if (!std::isfinite(artifact.te_rmse) || !std::isfinite(artifact.te_nrmse)) {
    return Status::Internal("non-finite transform metrics from store");
  }

  // Serving compression ratio: gzip(raw CSV) over the bytes actually held
  // on disk. This differs from the pipeline's per-blob gzip ratio — the
  // store pays chunk framing and index overhead but skips the extra gzip
  // pass — so records sourced from a store are labeled as such.
  artifact.compression_ratio =
      static_cast<double>(compress::RawGzipSize(test)) /
      static_cast<double>(reader.file_size());

  // Segment count: exact from the chunk models where they exist, the
  // constant-run proxy otherwise (matching pipeline.cc for SZ).
  size_t segments = 0;
  bool model_chunks = true;
  for (size_t i = 0; i < reader.chunks().size(); ++i) {
    if (!store::SupportsPushdown(reader.chunks()[i].algorithm)) {
      model_chunks = false;
      break;
    }
    Result<compress::BlobHeader> parsed = compress::ParseSegments(
        reader.ChunkPayload(i),
        [&](const compress::SegmentModel&) { ++segments; });
    if (!parsed.ok()) return parsed.status();
  }
  if (!model_chunks) segments = compress::CountConstantRuns(*series);
  artifact.segment_count = static_cast<double>(segments);

  artifact.series = std::move(*series);
  artifact.status = Status::OK();
  artifact.attempts = 1;
  artifact.from_store = true;
  return artifact;
}

}  // namespace lossyts::eval
