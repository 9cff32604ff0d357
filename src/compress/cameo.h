#ifndef LOSSYTS_COMPRESS_CAMEO_H_
#define LOSSYTS_COMPRESS_CAMEO_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// CAMEO-style autocorrelation-aware line simplification (Muniz-Cuza et al.,
/// arXiv:2501.14432), adapted to the paper's *pointwise relative* bound.
///
/// Pipeline:
///  1. Greedy connected line simplification: the series is covered by
///     segments whose endpoints ("knots") are stored exactly and whose
///     interior points are linearly interpolated. A Swing-style feasible
///     slope interval is intersected point by point to find the longest
///     candidate segment, then the candidate is re-verified with the
///     decoder's exact floating-point arithmetic and shrunk until every
///     interior point provably lies inside its relative allowance.
///  2. ACF refinement (the CAMEO idea): the sample autocorrelation of the
///     reconstruction is compared with the original's (features/acf.h); while
///     the worst lag deviation exceeds `acf_tolerance`, the spans with the
///     largest pointwise deviation are split at their worst point and
///     re-simplified, spending compression ratio to pull the reconstruction's
///     correlation structure back toward the original.
///
/// The pointwise bound is the hard guarantee (every emitted segment is
/// verified against it); ACF preservation is bounded best-effort, capped by
/// `max_refine_rounds` so compression always terminates.
class CameoCompressor : public Compressor {
 public:
  struct Options {
    int acf_lag = 32;               ///< Lags checked (clamped to n/2).
    double acf_tolerance = 0.05;    ///< Max allowed |Δacf| over the lags.
    int max_refine_rounds = 16;     ///< ACF refinement round cap.
    size_t refine_batch = 8;        ///< Spans split per refinement round.
  };

  CameoCompressor() = default;
  explicit CameoCompressor(const Options& options) : options_(options) {}

  std::string_view name() const override { return "CAMEO"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;

 private:
  Options options_;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_CAMEO_H_
