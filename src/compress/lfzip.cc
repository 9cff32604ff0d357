#include "compress/lfzip.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "compress/header.h"
#include "compress/serde.h"
#include "compress/symbol_coder.h"
#include "core/simd.h"

namespace lossyts::compress {

namespace {

enum ValueClass : uint8_t { kZero = 0, kNonZero = 1 };

// NLMS filter shared by Compress and Decompress. The filter adapts on the
// *reconstructed* stream only, so as long as both sides call Predict/Update
// with identical arguments in identical order, the decoder replays the
// encoder's weight trajectory bit-for-bit.
class NlmsPredictor {
 public:
  NlmsPredictor(size_t order, double step)
      : weights_(order, 0.0), history_(order, 0.0), step_(step) {}

  // Dot product of the adaptive weights with the last `order` reconstructed
  // values (history_[0] is the most recent). A non-finite dot product —
  // reconstructed values near DBL_MAX, or inf/NaN verbatim values replayed
  // from a corrupted blob — would poison the residual, so it falls back
  // deterministically to last-value prediction, and to 0.0 if even that is
  // non-finite. The decoder hits the same fallback at the same index.
  double Predict() const {
    double p = 0.0;
    for (size_t i = 0; i < weights_.size(); ++i) {
      p += weights_[i] * history_[i];
    }
    if (!std::isfinite(p)) p = history_.empty() ? 0.0 : history_[0];
    if (!std::isfinite(p)) p = 0.0;
    return p;
  }

  // Normalized LMS step toward the reconstructed value, then history shift.
  // If any weight leaves the finite range (overflowing history makes the
  // normalizer inf, a NaN residual makes the gradient NaN), the whole filter
  // resets to zero — a deterministic divergence guard both sides share.
  void Update(double rec, double pred) {
    const double err = rec - pred;
    double norm = 1e-6;
    for (double x : history_) norm += x * x;
    const double gain = step_ * err / norm;
    bool finite = true;
    for (size_t i = 0; i < weights_.size(); ++i) {
      weights_[i] += gain * history_[i];
      if (!std::isfinite(weights_[i])) finite = false;
    }
    if (!finite) std::fill(weights_.begin(), weights_.end(), 0.0);
    for (size_t i = history_.size(); i-- > 1;) history_[i] = history_[i - 1];
    if (!history_.empty()) history_[0] = rec;
  }

 private:
  std::vector<double> weights_;
  std::vector<double> history_;
  double step_;
};

// The one reconstruction expression, shared by the encoder's verification
// pass and the decoder so both sides round identically.
double ReconstructValue(double pred, double delta, int code) {
  return pred + 2.0 * delta * static_cast<double>(code);
}

}  // namespace

Result<std::vector<uint8_t>> LfzipCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  const std::vector<double>& v = series.values();
  const int radius = options_.quant_radius;
  const int unpredictable_symbol = 2 * radius;

  // Stage 1: exact zeros go to the class stream (zero tolerance under the
  // relative bound); the non-zero values form the coding stream.
  std::vector<uint8_t> classes(v.size());
  std::vector<double> w;
  w.reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == 0.0) {
      classes[i] = kZero;
    } else {
      classes[i] = kNonZero;
      w.push_back(v[i]);
    }
  }

  // Stages 2-3: NLMS prediction + uniform residual quantization. Like the
  // SZ codec's pointwise-relative mode, each block quantizes with the
  // conservative absolute step δ = ε·min|w_i| over the block, which
  // guarantees the pointwise bound for every member.
  std::vector<int> symbols;
  symbols.reserve(w.size());
  std::vector<double> unpredictable;
  std::vector<float> deltas;
  NlmsPredictor nlms(options_.filter_order, options_.step);

  for (size_t begin = 0; begin < w.size(); begin += options_.block_size) {
    const size_t end = std::min(begin + options_.block_size, w.size());
    // CheckFiniteValues above guarantees MinAbs's no-NaN precondition.
    const double min_mag = simd::MinAbs(w.data() + begin, end - begin);
    // Store the step as f32 and quantize with the rounded-down value so
    // encoder and decoder agree bit-for-bit and the bound still holds.
    float bound32 = static_cast<float>(error_bound * min_mag);
    if (std::isinf(bound32)) {
      // ε·min|v| past FLT_MAX would make every reconstruction pred+2·inf·0 a
      // NaN. FLT_MAX is still below the true bound (the cast overflowed), so
      // it is a valid conservative δ.
      bound32 = std::numeric_limits<float>::max();
    }
    if (static_cast<double>(bound32) > error_bound * min_mag) {
      bound32 = std::nextafterf(bound32, 0.0f);
    }
    deltas.push_back(bound32);
    const double delta = static_cast<double>(bound32);

    for (size_t i = begin; i < end; ++i) {
      const double pred = nlms.Predict();
      bool predictable = delta > 0.0;
      double code_f = 0.0;
      if (predictable) {
        code_f = std::nearbyint((w[i] - pred) / (2.0 * delta));
        // Range-check before the int cast: a residual near DBL_MAX divides
        // to an enormous (or non-finite) code whose cast would be UB. NaN
        // and inf compare false here and fall through to verbatim storage.
        predictable = std::abs(code_f) < static_cast<double>(radius);
      }
      double rec;
      if (predictable) {
        // Verify the decoder's exact reconstruction against the allowance.
        // The quantizer bounds the residual only in real arithmetic; the
        // division, scaling, and final addition each round, so any point the
        // reconstruction cannot provably cover is stored verbatim.
        rec = ReconstructValue(pred, delta, static_cast<int>(code_f));
        const Allowance a = RelativeAllowance(w[i], error_bound);
        // isfinite rejects an overflowed ±inf reconstruction that would
        // "fit" an allowance whose endpoint itself overflowed to ±inf.
        predictable = std::isfinite(rec) && rec >= a.lo && rec <= a.hi;
      }
      if (!predictable) {
        symbols.push_back(unpredictable_symbol);
        unpredictable.push_back(w[i]);
        rec = w[i];
      } else {
        symbols.push_back(static_cast<int>(code_f) + radius);
        rec = ReconstructValue(pred, delta, static_cast<int>(code_f));
      }
      nlms.Update(rec, pred);
    }
  }

  // Stage 4: entropy-code the symbols (same canonical-Huffman framing as the
  // SZ codec; the pipeline's gzip pass stands in for LFZip's BSC stage).
  ByteWriter writer;
  WriteHeader(MakeHeader(AlgorithmId::kLfzip, series), writer);
  if (Status s = PutCountU32(writer, w.size(), "LFZip nonzero"); !s.ok()) {
    return s;
  }
  for (uint8_t c : classes) writer.PutU8(c);

  if (Status s = PutCountU32(writer, deltas.size(), "LFZip block"); !s.ok()) {
    return s;
  }
  for (float d : deltas) {
    uint32_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    writer.PutU32(bits);
  }

  if (Status s = WriteSymbols(symbols, "LFZip", writer); !s.ok()) return s;

  if (Status s = PutCountU32(writer, unpredictable.size(),
                             "LFZip unpredictable value");
      !s.ok()) {
    return s;
  }
  for (double x : unpredictable) writer.PutDouble(x);
  return writer.Finish();
}

Result<TimeSeries> LfzipCompressor::Decompress(
    std::span<const uint8_t> blob) const {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kLfzip);
  if (!header.ok()) return header.status();

  const int radius = options_.quant_radius;
  const int unpredictable_symbol = 2 * radius;

  Result<uint32_t> n_nonzero = reader.GetU32();
  if (!n_nonzero.ok()) return n_nonzero.status();
  // Every count below sizes an allocation, so each is checked against what
  // the remaining payload could possibly hold before the vector is built —
  // a corrupted length field must fail as Corruption, not bad_alloc.
  if (*n_nonzero > header->num_points) {
    return Status::Corruption("LFZip nonzero count exceeds point count");
  }
  if (header->num_points > reader.remaining()) {
    return Status::Corruption("LFZip class stream truncated");
  }

  std::vector<uint8_t> classes(header->num_points);
  for (uint32_t i = 0; i < header->num_points; ++i) {
    Result<uint8_t> c = reader.GetU8();
    if (!c.ok()) return c.status();
    if (*c > kNonZero) return Status::Corruption("invalid LFZip value class");
    classes[i] = *c;
  }

  Result<uint32_t> n_blocks = reader.GetU32();
  if (!n_blocks.ok()) return n_blocks.status();
  if (*n_blocks > reader.remaining() / sizeof(uint32_t)) {
    return Status::Corruption("LFZip block count exceeds payload");
  }
  std::vector<float> deltas(*n_blocks);
  for (float& d : deltas) {
    Result<uint32_t> bits = reader.GetU32();
    if (!bits.ok()) return bits.status();
    uint32_t b = *bits;
    std::memcpy(&d, &b, sizeof(d));
  }

  Result<std::vector<int>> decoded_symbols =
      ReadSymbols(reader, *n_nonzero,
                  static_cast<uint32_t>(unpredictable_symbol) + 1, "LFZip");
  if (!decoded_symbols.ok()) return decoded_symbols.status();
  const std::vector<int>& symbols = *decoded_symbols;

  Result<uint32_t> n_unpredictable = reader.GetU32();
  if (!n_unpredictable.ok()) return n_unpredictable.status();
  if (*n_unpredictable > reader.remaining() / sizeof(double)) {
    return Status::Corruption("LFZip unpredictable count exceeds payload");
  }
  std::vector<double> unpredictable(*n_unpredictable);
  for (double& x : unpredictable) {
    Result<double> val = reader.GetDouble();
    if (!val.ok()) return val.status();
    x = *val;
  }

  // Replay the NLMS trajectory over the non-zero stream.
  std::vector<double> w(*n_nonzero);
  NlmsPredictor nlms(options_.filter_order, options_.step);
  size_t unpred_pos = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const size_t block = i / options_.block_size;
    if (block >= deltas.size()) {
      return Status::Corruption(
          "LFZip delta stream shorter than symbol stream");
    }
    const double delta = static_cast<double>(deltas[block]);
    const double pred = nlms.Predict();
    const int sym = symbols[i];
    if (sym == unpredictable_symbol) {
      if (unpred_pos >= unpredictable.size()) {
        return Status::Corruption("LFZip unpredictable stream exhausted");
      }
      w[i] = unpredictable[unpred_pos++];
    } else {
      w[i] = ReconstructValue(pred, delta, sym - radius);
    }
    nlms.Update(w[i], pred);
  }

  // Merge zeros back in.
  std::vector<double> values(header->num_points);
  size_t j = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (classes[i] == kZero) {
      values[i] = 0.0;
    } else {
      if (j >= w.size()) {
        return Status::Corruption("LFZip class stream inconsistent");
      }
      values[i] = w[j++];
    }
  }
  if (j != w.size()) {
    return Status::Corruption("LFZip nonzero count mismatch");
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress
