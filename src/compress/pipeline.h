#ifndef LOSSYTS_COMPRESS_PIPELINE_H_
#define LOSSYTS_COMPRESS_PIPELINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/status.h"
#include "core/time_series.h"

namespace lossyts::compress {

/// Outcome of running one compressor at one error bound through the paper's
/// full measurement pipeline (§3.2, §3.5): compress, gzip the result, size it
/// against the gzipped raw representation, and decompress for error metrics.
struct PipelineResult {
  std::string compressor_name;
  double error_bound = 0.0;

  size_t raw_bytes = 0;         ///< SerializeRawCsv(series).size().
  size_t raw_gz_bytes = 0;      ///< gzip(raw CSV): Eq. 3's numerator.
  size_t compressed_bytes = 0;  ///< Algorithm output, pre-gzip.
  size_t gz_bytes = 0;          ///< gzip(algorithm output): the ".gz file".

  /// Compression ratio per Eq. 3: CR = |gzip(raw CSV)| / |gzip(blob)|, i.e.
  /// exactly `raw_gz_bytes / gz_bytes` as a double division with no rounding
  /// or clamping. The paper sizes both the raw dataset and every compressor's
  /// output as .gz files, so numerator and denominator are both gzipped byte
  /// counts; a ratio above 1 means the codec beat gzip-of-CSV.
  double compression_ratio = 0.0;

  /// Number of segments produced (Figure 3). For the segment codecs
  /// (PMC/Swing/PPA/CAMEO) this is the explicit model segment count; for SZ
  /// and LFZip (which have no explicit segments) it is the number of constant
  /// runs in the decompressed output, matching the paper's observation that
  /// quantization makes SZ "fit a constant line like PMC".
  size_t segment_count = 0;

  /// Transformation errors (Definition 6) of decompressed vs. raw.
  double te_rmse = 0.0;
  double te_nrmse = 0.0;
  double te_rse = 0.0;
  double te_max_rel = 0.0;  ///< Realized L-inf relative error.

  TimeSeries decompressed;
};

/// Serializes the raw series as CSV text ("timestamp,value" rows). The
/// paper's raw-size baseline applies gzip *directly to the raw dataset*,
/// i.e. to the distributed CSV files, so the CR numerator uses this form.
std::vector<uint8_t> SerializeRawCsv(const TimeSeries& series);

/// gzip(SerializeRawCsv(series)).size() — the numerator of every CR.
/// Memoized per exact series (start, interval and value bits) in a bounded
/// LRU shared with RunPipeline, so repeated calls on one series serialize
/// and gzip it once; the result always equals the direct computation.
/// Thread-safe.
size_t RawGzipSize(const TimeSeries& series);

/// Runs the full pipeline for one (compressor, error bound) pair. The raw
/// sizes come from the same memo as RawGzipSize.
Result<PipelineResult> RunPipeline(const Compressor& compressor,
                                   const TimeSeries& series,
                                   double error_bound);

/// Counts maximal runs of identical consecutive values; the segment-count
/// proxy for codecs without explicit segments.
size_t CountConstantRuns(const TimeSeries& series);

/// Decompresses any blob produced by this library's codecs by dispatching
/// on the algorithm-id byte in the shared header. The entry point for tools
/// that receive opaque compressed files.
Result<TimeSeries> DecompressAny(std::span<const uint8_t> blob);

/// Creates a compressor by name. Recognized names: the paper's three PEBLC
/// methods ("PMC", "SWING", "SZ"), the lossless baselines ("GORILLA",
/// "CHIMP"), the related-work polynomial method ("PPA"), the
/// prediction-based "LFZIP" and the ACF-preserving line simplifier "CAMEO".
/// An unrecognized name is InvalidArgument and the message names the input.
Result<std::unique_ptr<Compressor>> MakeCompressor(const std::string& name);

/// Names of the three lossy compressors evaluated by the paper, in its order.
const std::vector<std::string>& LossyCompressorNames();

/// The paper's 13 error bounds: {0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2,
/// 0.25, 0.3, 0.4, 0.5, 0.65, 0.8}.
const std::vector<double>& PaperErrorBounds();

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_PIPELINE_H_
