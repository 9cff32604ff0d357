#ifndef LOSSYTS_COMPRESS_SWING_H_
#define LOSSYTS_COMPRESS_SWING_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// Swing Filter (Elmeleegy et al., VLDB'09; paper §3.2).
///
/// Each segment is a linear approximation anchored exactly at its first point
/// (t_s, v_s). While streaming, the filter maintains the steepest (`upper`)
/// and shallowest (`lower`) slopes such that the line stays inside every
/// point's relative allowance; a point whose allowance cannot be intersected
/// closes the segment. Following ModelarDB's variant used by the paper, the
/// emitted slope is the mean of the final upper and lower slopes.
///
/// Blob layout after the shared header: u32 segment count, then per segment a
/// u16 length, the f64 anchor value and the f64 slope per index step. Two
/// model coefficients per segment — the storage overhead the paper identifies
/// as Swing's CR weakness relative to PMC.
class SwingCompressor : public Compressor {
 public:
  std::string_view name() const override { return "SWING"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SWING_H_
