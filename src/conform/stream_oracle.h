#ifndef LOSSYTS_CONFORM_STREAM_ORACLE_H_
#define LOSSYTS_CONFORM_STREAM_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conform/oracles.h"
#include "core/time_series.h"

namespace lossyts::conform {

/// One streaming replay schedule — the stream battery's analogue of a blob
/// Mutant: instead of corrupting bytes, it stresses the *incremental* code
/// paths (segment closes, mid-segment flushes, per-point rejection) that
/// batch Compress never exercises.
struct StreamMutant {
  std::string kind;   ///< Stable label: "replay", "flush-mid", ...
  size_t prefix = 0;  ///< Points of the series to accept, in order.
  /// When != SIZE_MAX, `inject_value` is additionally offered before the
  /// point at this index; the stream must reject it with InvalidArgument
  /// and the final output must be unchanged by the attempt.
  size_t inject_at = static_cast<size_t>(-1);
  double inject_value = 0.0;
};

/// Derives the replay battery for one series, deterministic in (series
/// length, seed):
///  - "replay":      every point, in order (the plain streaming path),
///  - "flush-first": flush after a single accepted point (length-1 edge),
///  - "flush-mid":   flush at a seed-derived interior cut (mid-segment),
///  - "nan-inject" / "inf-inject": full replay with a non-finite value
///    offered at a seed-derived position (per-point rejection contract).
std::vector<StreamMutant> GenerateStreamMutants(const TimeSeries& series,
                                                uint64_t seed);

/// Replays one schedule through the streaming codec and cross-checks it
/// against batch Compress/Decompress of the same accepted prefix:
///  - "stream-flush-bytes":    Flush() blob byte-identical to batch
///                             Compress (including ok-ness),
///  - "stream-coverage":       segments contiguous from 0 and lengths
///                             summing to the accepted point count,
///  - "stream-segment-values": every closed segment's ValueAt
///                             equal bit-for-bit to batch Decompress,
///  - "stream-nonfinite-reject": an injected non-finite point must be
///                             rejected without perturbing the stream.
/// `codec_name` must have a streaming implementation (stream/
/// streaming_compressor.h).
std::optional<OracleFailure> CheckStreamMutant(const std::string& codec_name,
                                               const TimeSeries& series,
                                               double error_bound,
                                               const StreamMutant& mutant);

/// Runs the whole replay battery for one (codec, series, ε) cell. Returns
/// empty when the codec has no streaming implementation (nothing to check)
/// or every schedule conformed. `checked` (optional) receives the number of
/// schedules executed.
std::vector<OracleFailure> RunStreamOracles(const std::string& codec_name,
                                            const TimeSeries& series,
                                            double error_bound, uint64_t seed,
                                            size_t* checked = nullptr);

}  // namespace lossyts::conform

#endif  // LOSSYTS_CONFORM_STREAM_ORACLE_H_
