#ifndef LOSSYTS_STREAM_STREAMING_COMPRESSOR_H_
#define LOSSYTS_STREAM_STREAMING_COMPRESSOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/segment_model.h"
#include "core/status.h"

namespace lossyts::stream {

/// Incremental driver of the PMC/Swing segment core (compress/
/// segment_model.h): accepts one point at a time, emits segments as they
/// close, and finalizes with a blob that is byte-identical to what the batch
/// `Compress()` of the same accepted points would have produced — the
/// contract the conform harness enforces over its full corpus × bound grid.
/// Batch Compress drives the same per-point steps from a loop over the
/// series; this class keeps their state as members instead.
///
/// Closed segments are handed out as compress::SegmentModel with `start` set
/// to the stream offset of their first point; `ValueAt(k)` reproduces batch
/// Decompress bit-for-bit (for PMC the anchor is the stored, possibly
/// f32-rounded mean).
///
/// Lifecycle: Open() → Append()* → Flush(). Open validates like batch
/// Compress (error bound in (0,1), header-representable metadata) and may be
/// called again after Flush to start a new stream. Append rejects non-finite
/// values *per point* without disturbing the open state, so one poisoned
/// reading does not kill a long-lived stream; the byte-identity contract is
/// over the accepted points only. Flush on an empty stream fails exactly like
/// batch Compress of an empty series.
///
/// Memory: O(open segment) working state plus the compressed payload
/// accumulated so far (the bytes Flush will return) — closed segments are
/// not retained beyond what the caller drains from Append.
///
/// Not thread-safe; one instance per series per thread.
class StreamingCompressor {
 public:
  /// Codec identifier, matching the batch compressor ("PMC", "SWING").
  std::string_view name() const;

  /// Starts (or restarts) a stream. Validation mirrors batch Compress:
  /// `error_bound` must be in (0, 1), `start_timestamp` must fit the i32
  /// header field and `interval_seconds` the u16 one.
  Status Open(int64_t start_timestamp, int32_t interval_seconds,
              double error_bound);

  /// Feeds one point. Newly closed segments are appended to `*closed` when
  /// it is non-null (Swing's verify-shrink can cascade, so a single point
  /// may close several). Non-finite values are rejected with InvalidArgument
  /// and leave the stream state untouched.
  Status Append(double value,
                std::vector<compress::SegmentModel>* closed = nullptr);

  /// Closes the open segment(s), appending them to `*closed` when non-null,
  /// and returns the complete blob: byte-identical to batch Compress() of
  /// every accepted point. The stream is finalized afterwards; call Open()
  /// to start a new one. Fails on an empty stream.
  Result<std::vector<uint8_t>> Flush(
      std::vector<compress::SegmentModel>* closed = nullptr);

  /// Model of the still-open window as if it closed now, covering its
  /// `length` points from `start` = closed_points(). Provisional only — the
  /// coefficients may still change (PMC's f32 rounding happens at close;
  /// Swing's slope is the current interval midpoint before verification) —
  /// but deterministic and causal, which is what the prequential loop needs
  /// for model inputs. O(1).
  compress::SegmentModel Provisional() const;

  /// Convenience: appends the provisional reconstruction of the open window
  /// to `*out` (O(open window)).
  void ProvisionalTail(std::vector<double>* out) const;

  /// Points accepted since Open.
  uint64_t points() const { return points_; }
  /// Points covered by closed segments so far.
  uint64_t closed_points() const { return closed_points_; }
  /// Points still in the open window: points() - closed_points().
  uint64_t open_length() const { return points_ - closed_points_; }
  /// Closed segments emitted so far.
  uint64_t segments() const { return writer_.segments(); }
  double error_bound() const { return error_bound_; }
  bool is_open() const { return open_; }

 private:
  friend Result<std::unique_ptr<StreamingCompressor>> MakeStreamingCompressor(
      const std::string& name);
  explicit StreamingCompressor(compress::AlgorithmId algorithm)
      : algorithm_(algorithm) {}

  // Errors, window closes and the Swing step live out of line, so the
  // common PMC point gets a small Append stack frame: sanitizer builds set
  // up and tear down every frame object on each call.

  /// The error for a point Append refuses.
  [[gnu::noinline]] Status Reject(double value) const;
  /// PMC: emits the window `value` broke and restarts it on `value`.
  [[gnu::noinline]] void ClosePmc(double value,
                                  std::vector<compress::SegmentModel>* closed);
  /// Swing's per-point step.
  [[gnu::noinline]] void AppendSwing(
      double value, std::vector<compress::SegmentModel>* closed);
  /// Swing: anchors a new candidate on `value`; requires buffer_ empty.
  void StartSwing(double value);
  /// Swing: extends the candidate with `value`; false when it breaks it.
  bool AcceptSwing(double value);
  /// Swing: verify-shrinks and emits the candidate, pushing the points it
  /// did not cover back to the *front* of pending_ — the order in which the
  /// batch driver's restarted scan revisits them.
  void CloseSwing(std::vector<compress::SegmentModel>* closed);
  /// Swing: (re-)feeds pending_ through the candidate.
  void DrainSwing(std::vector<compress::SegmentModel>* closed);
  /// Writes one closed segment, stamping its start offset.
  void Emit(compress::SegmentModel segment,
            std::vector<compress::SegmentModel>* closed);

  compress::AlgorithmId algorithm_;
  bool open_ = false;
  double error_bound_ = 0.0;
  uint64_t points_ = 0;
  uint64_t closed_points_ = 0;
  compress::SegmentBlobWriter writer_;
  compress::PmcWindow pmc_;
  compress::SwingWindow swing_;
  std::vector<double> buffer_;  ///< Swing candidate values; [0] is the anchor.
  std::deque<double> pending_;  ///< Swing points awaiting (re-)acceptance.
};

/// Codecs with a streaming implementation, a subset of
/// compress::LossyCompressorNames(): {"PMC", "SWING"}.
std::vector<std::string> StreamingCompressorNames();

/// True when `name` (exact match, upper case) has a streaming counterpart.
bool HasStreamingCompressor(const std::string& name);

/// Factory mirroring compress::MakeCompressor; InvalidArgument names the
/// input on an unknown or non-streamable codec.
Result<std::unique_ptr<StreamingCompressor>> MakeStreamingCompressor(
    const std::string& name);

}  // namespace lossyts::stream

#endif  // LOSSYTS_STREAM_STREAMING_COMPRESSOR_H_
