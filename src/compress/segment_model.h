#ifndef LOSSYTS_COMPRESS_SEGMENT_MODEL_H_
#define LOSSYTS_COMPRESS_SEGMENT_MODEL_H_

// The one segment-model core of the PMC-Mean and Swing codecs (paper §3.2):
// the segment type, the per-point encoder steps, the wire writer and the
// wire parser. Batch Compress/Decompress (pmc.cc, swing.cc), the streaming
// compressor (stream/), store pushdown and point reads (store/) all drive
// these, so every rule below exists exactly once.
//
// Wire layout after the shared header (header.h): u32 segment count, then
// per segment a u16 length followed by
//   PMC:   a u8 width flag (kF32/kF64), then the mean as f32 or f64;
//   Swing: the f64 anchor, then the f64 slope per index step.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "compress/header.h"
#include "compress/serde.h"
#include "core/status.h"

namespace lossyts::compress {

/// Segment lengths are stored as u16 on the wire.
constexpr size_t kMaxSegmentLength = 65535;

/// PMC per-segment coefficient width flags. ModelarDB stores model
/// coefficients as 32-bit floats; PMC does the same whenever the rounded
/// mean still lies in the segment's feasible interval, falling back to f64
/// otherwise so the error-bound guarantee is never compromised. Swing's
/// coefficients are always f64: its slope is multiplied by the in-segment
/// index, so f32 rounding would drift linearly along the segment (§4.2).
constexpr uint8_t kF32 = 0;
constexpr uint8_t kF64 = 1;

/// One segment of a PMC-Mean or Swing blob. Both codecs reduce to the linear
/// form v̂(k) = anchor + slope·k over the segment's local offsets; PMC is the
/// slope = 0 case, with the (possibly f32-rounded) mean as its anchor.
struct SegmentModel {
  uint32_t start = 0;   ///< Offset of the first covered point.
  uint32_t length = 0;  ///< Points covered (1..kMaxSegmentLength).
  double anchor = 0.0;  ///< PMC mean, or Swing's exact first value.
  double slope = 0.0;   ///< Value change per index step; 0 for PMC.
  bool f32 = false;     ///< PMC only: the anchor is stored as f32.

  /// The one reconstruction expression. Swing's encoder verifies with it
  /// and its decoder emits it, so both round identically: the slope
  /// interval certifies the bound only in exact arithmetic, and for exact
  /// zeros (zero-width allowance) even a 1-ulp drift of slope·k would be a
  /// violation. PMC's decoder emits the anchor itself, which differs from
  /// ValueAt only for an anchor of -0.0 (ValueAt gives +0.0).
  double ValueAt(double k) const { return anchor + slope * k; }

  /// Mean reconstructed value over the segment: the midpoint level.
  double MeanLevel() const {
    return ValueAt(static_cast<double>(length - 1) * 0.5);
  }
};

/// PMC-Mean encoder state (Lazaridis & Mehrotra, ICDE'03). The window stays
/// open while its running mean lies inside [lo, hi], the intersection of
/// every member's relative allowance interval.
class PmcWindow {
 public:
  /// `f32_coefficients` = false forces f64 means (the storage-width
  /// ablation); see PmcCompressor::Options.
  explicit PmcWindow(bool f32_coefficients = true)
      : f32_coefficients_(f32_coefficients) {}

  /// The acceptance predicate and per-point encoder step: extends the
  /// window by `value` when the new mean still lies inside the intersected
  /// interval and the u16 length cap allows; false (window untouched) when
  /// `value` breaks the window, which the caller then closes and restarts
  /// on `value`.
  bool Accept(double value, double error_bound) {
    const Allowance a = RelativeAllowance(value, error_bound);
    const double new_lo = std::max(lo_, a.lo);
    const double new_hi = std::min(hi_, a.hi);
    const double new_sum = sum_ + value;
    const double new_mean = new_sum / static_cast<double>(length_ + 1);
    // isfinite guards the same-sign overflow of the sum near DBL_MAX: an
    // infinite mean passes the interval test once an allowance endpoint has
    // itself overflowed to ±inf, yet decodes to a non-recompressible inf.
    if (!(new_lo <= new_hi && std::isfinite(new_mean) &&
          new_mean >= new_lo && new_mean <= new_hi &&
          length_ < kMaxSegmentLength)) {
      return false;
    }
    lo_ = new_lo;
    hi_ = new_hi;
    sum_ = new_sum;
    mean_ = new_mean;
    ++length_;
    return true;
  }

  /// Restarts the window on `value` alone (after Close).
  void Restart(double value, double error_bound) {
    const Allowance a = RelativeAllowance(value, error_bound);
    length_ = 1;
    sum_ = value;
    lo_ = a.lo;
    hi_ = a.hi;
    mean_ = value;
  }

  /// The open window as a segment, with the f32 narrowing applied: the mean
  /// is stored as f32 when the rounded value still lies in [lo, hi]. The
  /// isfinite check matters when a huge value's allowance endpoint
  /// overflowed to ±inf: the f32 cast then overflows too, and an infinite
  /// rounding would compare "inside" the infinite interval.
  SegmentModel Close() const {
    SegmentModel segment;
    segment.length = length_;
    const double rounded = static_cast<double>(static_cast<float>(mean_));
    segment.f32 = f32_coefficients_ && std::isfinite(rounded) &&
                  rounded >= lo_ && rounded <= hi_;
    segment.anchor = segment.f32 ? rounded : mean_;
    return segment;
  }

  /// The open window as if it closed now, before the f32 narrowing.
  SegmentModel Provisional() const {
    SegmentModel segment;
    segment.length = length_;
    segment.anchor = mean_;
    return segment;
  }

 private:
  bool f32_coefficients_;
  uint32_t length_ = 0;
  double sum_ = 0.0;
  double lo_ = -std::numeric_limits<double>::infinity();
  double hi_ = std::numeric_limits<double>::infinity();
  double mean_ = 0.0;  ///< Last mean known to satisfy the window.
};

/// Swing filter encoder state (Elmeleegy et al., VLDB'09). The candidate
/// line is anchored exactly at its first value; the window keeps the
/// feasible slope interval after every accepted offset, so that when
/// verification shortens the segment the slope for the shorter prefix is
/// the midpoint of *its* interval, not the full one's (ModelarDB variant:
/// the emitted slope is the mean of the final upper and lower slopes).
///
/// The window does not keep the values themselves: Close reads them from
/// the caller, which owns the series (batch) or a buffer (stream).
class SwingWindow {
 public:
  /// Starts a candidate anchored at `anchor`.
  void Start(double anchor) {
    anchor_ = anchor;
    length_ = 1;
    lo_ = -std::numeric_limits<double>::infinity();
    hi_ = std::numeric_limits<double>::infinity();
    intervals_.clear();
  }

  /// The acceptance predicate: extends the candidate by `value` when the
  /// line can still pass through its allowance and the u16 length cap
  /// allows; false (window untouched) when `value` breaks the candidate.
  bool Accept(double value, double error_bound) {
    const double step = static_cast<double>(length_);
    const Allowance a = RelativeAllowance(value, error_bound);
    const double new_lo = std::max(lo_, (a.lo - anchor_) / step);
    const double new_hi = std::min(hi_, (a.hi - anchor_) / step);
    if (!(new_lo <= new_hi) || length_ >= kMaxSegmentLength) return false;
    lo_ = new_lo;
    hi_ = new_hi;
    intervals_.emplace_back(new_lo, new_hi);
    ++length_;
    return true;
  }

  /// Verify-shrink: the segment the candidate closes into. `values[k]` is
  /// the candidate's k-th point (values[0] is the anchor). The decoder's
  /// floating-point reconstruction is checked against every allowance and
  /// the candidate shrinks to the longest conforming prefix; the points
  /// past the returned length belong to the next segment. Offset 0
  /// reconstructs the anchor exactly, so the result has length >= 1.
  SegmentModel Close(const double* values, double error_bound) const {
    SegmentModel segment;
    segment.anchor = anchor_;
    size_t len = length_;
    while (true) {
      segment.slope = len > 1 ? 0.5 * (intervals_[len - 2].first +
                                       intervals_[len - 2].second)
                              : 0.0;
      // A non-finite slope (the interval endpoints can overflow to ±inf for
      // values near DBL_MAX) poisons even offset 0 at decode time, because
      // inf * 0 is NaN — so reject it outright rather than trusting the
      // offset-0-is-exact shortcut. Likewise a reconstruction of ±inf can
      // pass the allowance comparison when the allowance itself overflowed,
      // but would make the output non-recompressible.
      size_t bad = len;
      if (len > 1 && !std::isfinite(segment.slope)) bad = 1;
      for (size_t k = 1; k < bad; ++k) {
        const double rec = segment.ValueAt(static_cast<double>(k));
        const Allowance a = RelativeAllowance(values[k], error_bound);
        if (!std::isfinite(rec) || !(rec >= a.lo && rec <= a.hi)) {
          bad = k;
          break;
        }
      }
      if (bad == len) break;
      len = bad;
    }
    segment.length = static_cast<uint32_t>(len);
    return segment;
  }

  /// The candidate as if it closed now, before verification: the current
  /// interval midpoint as slope (0 when that is not finite).
  SegmentModel Provisional() const {
    SegmentModel segment;
    segment.length = length_;
    segment.anchor = anchor_;
    segment.slope = length_ > 1 ? 0.5 * (lo_ + hi_) : 0.0;
    if (!std::isfinite(segment.slope)) segment.slope = 0.0;
    return segment;
  }

 private:
  double anchor_ = 0.0;
  uint32_t length_ = 0;
  double lo_ = 0.0;
  double hi_ = 0.0;
  /// intervals_[k-1]: the feasible slope range after accepting offset k.
  std::vector<std::pair<double, double>> intervals_;
};

/// The one segment wire writer: the shared header, the u32 segment count,
/// then the segments. The point and segment counts are patched in by Finish,
/// so a writer can be fed before the series length is known.
class SegmentBlobWriter {
 public:
  /// Starts a new blob (discarding any unfinished one).
  void Begin(AlgorithmId algorithm, int32_t first_timestamp,
             uint16_t interval_seconds) {
    writer_ = ByteWriter();
    algorithm_ = algorithm;
    segments_ = 0;
    BlobHeader header;
    header.algorithm = algorithm;
    header.first_timestamp = first_timestamp;
    header.interval_seconds = interval_seconds;
    WriteHeader(header, writer_);
    writer_.PutU32(0);  // Segment count, patched by Finish.
  }

  void Put(const SegmentModel& segment) {
    writer_.PutU16(static_cast<uint16_t>(segment.length));
    if (algorithm_ == AlgorithmId::kPmc) {
      writer_.PutU8(segment.f32 ? kF32 : kF64);
      if (segment.f32) {
        uint32_t bits;
        const float f = static_cast<float>(segment.anchor);
        std::memcpy(&bits, &f, sizeof(bits));
        writer_.PutU32(bits);
      } else {
        writer_.PutDouble(segment.anchor);
      }
    } else {
      writer_.PutDouble(segment.anchor);
      writer_.PutDouble(segment.slope);
    }
    ++segments_;
  }

  uint64_t segments() const { return segments_; }

  /// Patches the point and segment counts and returns the blob.
  Result<std::vector<uint8_t>> Finish(uint32_t num_points) {
    if (segments_ > 0xFFFFFFFFull) {
      return Status::Internal(std::string(CodecLabel(algorithm_)) +
                              " segment count exceeds the u32 wire format: " +
                              std::to_string(segments_));
    }
    writer_.PatchU32(kPointCountOffset, num_points);
    writer_.PatchU32(kSegmentCountOffset, static_cast<uint32_t>(segments_));
    return writer_.Finish();
  }

  /// "PMC" or "Swing", as the wire messages name the codecs.
  static const char* CodecLabel(AlgorithmId algorithm) {
    return algorithm == AlgorithmId::kPmc ? "PMC" : "Swing";
  }

 private:
  static constexpr size_t kPointCountOffset = 7;     // u8 + i32 + u16.
  static constexpr size_t kSegmentCountOffset = 11;  // Header size.

  ByteWriter writer_;
  AlgorithmId algorithm_ = AlgorithmId::kPmc;
  uint64_t segments_ = 0;
};

/// The one segment wire parser. Reads the segment count and the segments
/// following a PMC or Swing `header` already read from `reader`, calling
/// `visit(const SegmentModel&)` per segment in order (with `start` set), so
/// no segment list is allocated. Corruption when the payload is truncated, a
/// PMC width flag is invalid, or the lengths overrun or fall short of the
/// header's point count.
template <typename Visit>
Status ForEachSegment(ByteReader& reader, const BlobHeader& header,
                      Visit&& visit) {
  const bool pmc = header.algorithm == AlgorithmId::kPmc;
  Result<uint32_t> count = reader.GetU32();
  if (!count.ok()) return count.status();
  SegmentModel segment;
  uint64_t covered = 0;
  for (uint32_t s = 0; s < *count; ++s) {
    Result<uint16_t> length = reader.GetU16();
    if (!length.ok()) return length.status();
    if (covered + *length > header.num_points) {
      return Status::Corruption(
          std::string(SegmentBlobWriter::CodecLabel(header.algorithm)) +
          " segment lengths overrun the point count");
    }
    segment.start = static_cast<uint32_t>(covered);
    segment.length = *length;
    if (pmc) {
      Result<uint8_t> width = reader.GetU8();
      if (!width.ok()) return width.status();
      if (*width == kF32) {
        Result<uint32_t> bits = reader.GetU32();
        if (!bits.ok()) return bits.status();
        float f;
        const uint32_t b = *bits;
        std::memcpy(&f, &b, sizeof(f));
        segment.anchor = static_cast<double>(f);
      } else if (*width == kF64) {
        Result<double> mean = reader.GetDouble();
        if (!mean.ok()) return mean.status();
        segment.anchor = *mean;
      } else {
        return Status::Corruption("invalid PMC coefficient width flag");
      }
      segment.f32 = *width == kF32;
    } else {
      Result<double> anchor = reader.GetDouble();
      if (!anchor.ok()) return anchor.status();
      Result<double> slope = reader.GetDouble();
      if (!slope.ok()) return slope.status();
      segment.anchor = *anchor;
      segment.slope = *slope;
    }
    visit(segment);
    covered += *length;
  }
  if (covered != header.num_points) {
    return Status::Corruption(
        std::string(SegmentBlobWriter::CodecLabel(header.algorithm)) +
        " segment lengths do not sum to point count");
  }
  return Status::OK();
}

/// Parses any PMC or Swing blob without materializing points — the basis
/// of store pushdown and early point reads. Returns the blob header.
/// InvalidArgument for a blob of any other algorithm; Corruption for an
/// empty or malformed blob.
template <typename Visit>
Result<BlobHeader> ParseSegments(std::span<const uint8_t> blob,
                                 Visit&& visit) {
  if (blob.empty()) return Status::Corruption("empty blob has no segments");
  const auto algorithm = static_cast<AlgorithmId>(blob[0]);
  if (algorithm != AlgorithmId::kPmc && algorithm != AlgorithmId::kSwing) {
    return Status::InvalidArgument(
        "blob algorithm has no explicit segment model");
  }
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, algorithm);
  if (!header.ok()) return header.status();
  if (Status s = ForEachSegment(reader, *header, visit); !s.ok()) return s;
  return header;
}

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SEGMENT_MODEL_H_
