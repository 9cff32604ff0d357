#include "compress/sz.h"

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

enum class PredictorId : uint8_t {
  kLorenzo = 0,      // Previous reconstructed value.
  kMeanLorenzo = 1,  // Block mean.
  kLinearRegression = 2,
};

enum ValueClass : uint8_t { kZero = 0, kNonZero = 1 };

struct BlockModel {
  PredictorId predictor;
  float abs_bound = 0.0f;  // Per-block absolute bound (see Compress).
  double mean = 0.0;       // kMeanLorenzo.
  double a = 0.0;          // kLinearRegression intercept.
  double b = 0.0;          // kLinearRegression slope.
};

// Chooses the predictor with the smallest total absolute residual over the
// raw block values (the sampling-based estimation SZ performs). The sums run
// through the core/simd kernels, whose four-lane accumulation order is
// fixed, so the choice (and hence the stream) is the same on every host. The
// stream is self-describing either way — the chosen model is transmitted per
// block — so a different choice would only be a compatibility concern across
// *builds*, not a correctness one.
void ChooseBlockModel(const std::vector<double>& w, size_t begin, size_t end,
                      double prev_value, BlockModel* model) {
  const size_t n = end - begin;
  const double* block = w.data() + begin;

  const double lorenzo_cost = simd::SumAbsDiffSeq(block, n, prev_value);

  const double mean = simd::Sum(block, n) / static_cast<double>(n);
  const double mean_cost = simd::SumAbsDevAffine(block, n, mean, 0.0);

  // Least-squares line over local indices 0..n-1.
  double a = mean;
  double b = 0.0;
  if (n >= 2) {
    const double x_mean = static_cast<double>(n - 1) / 2.0;
    const double sxy = simd::DotRamp(block, n, x_mean, mean);
    // Σ(i - x_mean)² has the closed form n(n² - 1)/12: every dx² is an exact
    // quarter-integer and the partial sums stay far below 2^53, so this is
    // bit-equal to the old accumulation loop.
    const double nd = static_cast<double>(n);
    const double sxx = nd * (nd * nd - 1.0) / 12.0;
    b = sxx > 0.0 ? sxy / sxx : 0.0;
    a = mean - b * x_mean;
  }
  const double linear_cost = simd::SumAbsDevAffine(block, n, a, b);

  if (lorenzo_cost <= mean_cost && lorenzo_cost <= linear_cost) {
    model->predictor = PredictorId::kLorenzo;
  } else if (mean_cost <= linear_cost) {
    model->predictor = PredictorId::kMeanLorenzo;
    model->mean = mean;
  } else {
    model->predictor = PredictorId::kLinearRegression;
    model->a = a;
    model->b = b;
  }
}

// Prediction and reconstruction arithmetic shared by Compress and
// Decompress. The encoder *verifies* every quantized reconstruction against
// the point's relative allowance (the LFZip-style max-error check), which is
// only sound if it computes bit-for-bit what the decoder will compute — so
// both sides call these and nothing else. (Decompress resolves the predictor
// once per block; the regression line is the one expression with
// arithmetic, so it lives in LinearPrediction.)
double LinearPrediction(const BlockModel& model, size_t local_index) {
  return model.a + model.b * static_cast<double>(local_index);
}

double PredictValue(const BlockModel& model, size_t local_index,
                    double prev_rec) {
  switch (model.predictor) {
    case PredictorId::kLorenzo:
      return prev_rec;
    case PredictorId::kMeanLorenzo:
      return model.mean;
    case PredictorId::kLinearRegression:
      return LinearPrediction(model, local_index);
  }
  return prev_rec;
}

double ReconstructValue(double pred, double delta, int code) {
  return pred + 2.0 * delta * static_cast<double>(code);
}

}  // namespace

Result<std::vector<uint8_t>> SzCompressor::Compress(
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

  // Stage 1: exact zeros go to the class stream (they have zero tolerance
  // under the relative bound); the non-zero values form the coding stream.
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

  // Stages 2-3: blockwise prediction + quantization. Following SZ 2.1's
  // pointwise-relative mode, each block uses the *conservative* absolute
  // bound ε·min|w_i| over the block, which guarantees the pointwise bound
  // for every member but costs compression whenever the block spans a wide
  // magnitude range — the overhead the paper's SZ exhibits.
  std::vector<int> symbols;
  symbols.reserve(w.size());
  std::vector<double> unpredictable;
  std::vector<BlockModel> models;
  std::vector<double> code_scratch;
  double prev_rec = 0.0;

  for (size_t begin = 0; begin < w.size(); begin += options_.block_size) {
    const size_t end = std::min(begin + options_.block_size, w.size());
    BlockModel model;
    // CheckFiniteValues above guarantees MinAbs's no-NaN precondition.
    const double min_mag = simd::MinAbs(w.data() + begin, end - begin);
    // Store the bound as f32 and quantize with the rounded-down value so
    // encoder and decoder agree bit-for-bit and the bound still holds.
    float bound32 = static_cast<float>(error_bound * min_mag);
    if (std::isinf(bound32)) {
      // ε·min|v| past FLT_MAX would quantize every residual to code 0 and
      // reconstruct pred + 2·inf·0 = NaN. FLT_MAX is still below the true
      // bound (the cast overflowed), so it is a valid conservative δ.
      bound32 = std::numeric_limits<float>::max();
    }
    if (static_cast<double>(bound32) > error_bound * min_mag) {
      bound32 = std::nextafterf(bound32, 0.0f);
    }
    model.abs_bound = bound32;
    ChooseBlockModel(w, begin, end, prev_rec, &model);
    models.push_back(model);

    const double delta = static_cast<double>(bound32);
    // Mean and linear predictions are independent of the reconstruction
    // chain, so one QuantizeAffine pass fills the whole block. Lorenzo predicts from prev_rec and stays serial. Both
    // paths round half-to-even (nearbyint); any code the rounding mode
    // shifts still passes through the pointwise verification below, and the
    // stream carries its own codes, so decode is unaffected.
    const bool affine = model.predictor != PredictorId::kLorenzo;
    if (affine && delta > 0.0) {
      code_scratch.resize(end - begin);
      const double pa =
          model.predictor == PredictorId::kMeanLorenzo ? model.mean : model.a;
      const double pb =
          model.predictor == PredictorId::kMeanLorenzo ? 0.0 : model.b;
      simd::QuantizeAffine(w.data() + begin, end - begin, pa, pb,
                           2.0 * delta, code_scratch.data());
    }
    for (size_t i = begin; i < end; ++i) {
      const double pred = PredictValue(model, i - begin, prev_rec);
      bool predictable = delta > 0.0;
      double code_f = 0.0;
      if (predictable) {
        code_f = affine ? code_scratch[i - begin]
                        : std::nearbyint((w[i] - pred) / (2.0 * delta));
        predictable = std::abs(code_f) < static_cast<double>(radius);
      }
      if (predictable) {
        // Verify the decoder's exact reconstruction against the allowance.
        // |2δ·round(r/2δ) − r| ≤ δ only holds in real arithmetic; the
        // division, scaling, and final addition each round, and near a bin
        // edge the accumulated drift can cross the bound. Any point the
        // reconstruction cannot provably cover is stored verbatim.
        const double rec = ReconstructValue(pred, delta,
                                            static_cast<int>(code_f));
        const Allowance a = RelativeAllowance(w[i], error_bound);
        // isfinite rejects an overflowed ±inf reconstruction that would
        // "fit" an allowance whose endpoint itself overflowed to ±inf.
        predictable = std::isfinite(rec) && rec >= a.lo && rec <= a.hi;
      }
      if (!predictable) {
        symbols.push_back(unpredictable_symbol);
        unpredictable.push_back(w[i]);
        prev_rec = w[i];
      } else {
        const int code = static_cast<int>(code_f);
        symbols.push_back(code + radius);
        prev_rec = ReconstructValue(pred, delta, code);
      }
    }
  }

  // Stage 4: entropy-code the symbols.
  ByteWriter writer;
  WriteHeader(MakeHeader(AlgorithmId::kSz, series), writer);
  if (Status s = PutCountU32(writer, w.size(), "SZ nonzero"); !s.ok()) {
    return s;
  }
  for (uint8_t c : classes) writer.PutU8(c);

  if (Status s = PutCountU32(writer, models.size(), "SZ block model");
      !s.ok()) {
    return s;
  }
  for (const BlockModel& m : models) {
    writer.PutU8(static_cast<uint8_t>(m.predictor));
    uint32_t bound_bits;
    std::memcpy(&bound_bits, &m.abs_bound, sizeof(bound_bits));
    writer.PutU32(bound_bits);
    if (m.predictor == PredictorId::kMeanLorenzo) {
      writer.PutDouble(m.mean);
    } else if (m.predictor == PredictorId::kLinearRegression) {
      writer.PutDouble(m.a);
      writer.PutDouble(m.b);
    }
  }

  if (Status s = WriteSymbols(symbols, "SZ", writer); !s.ok()) return s;

  if (Status s = PutCountU32(writer, unpredictable.size(),
                             "SZ unpredictable value");
      !s.ok()) {
    return s;
  }
  for (double x : unpredictable) writer.PutDouble(x);
  return writer.Finish();
}

Result<TimeSeries> SzCompressor::Decompress(
    std::span<const uint8_t> blob) const {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kSz);
  if (!header.ok()) return header.status();

  const int radius = options_.quant_radius;
  const int unpredictable_symbol = 2 * radius;

  Result<uint32_t> n_nonzero = reader.GetU32();
  if (!n_nonzero.ok()) return n_nonzero.status();
  // Every count below sizes an allocation, so each is checked against what
  // the remaining payload could possibly hold before the vector is built —
  // a corrupted length field must fail as Corruption, not bad_alloc.
  if (*n_nonzero > header->num_points) {
    return Status::Corruption("SZ nonzero count exceeds point count");
  }
  if (header->num_points > reader.remaining()) {
    return Status::Corruption("SZ class stream truncated");
  }

  // The class stream is read in place: one pass validates it and counts
  // the non-zero classes, which the merge below checks against n_nonzero.
  const uint8_t* const classes = reader.current();
  size_t nonzero_classes = 0;
  uint8_t any_invalid = 0;
  for (uint32_t i = 0; i < header->num_points; ++i) {
    nonzero_classes += classes[i] & 1u;
    any_invalid |= classes[i] & static_cast<uint8_t>(~1u);
  }
  if (any_invalid != 0) return Status::Corruption("invalid SZ value class");
  if (Status s = reader.Skip(header->num_points); !s.ok()) return s;

  Result<uint32_t> n_blocks = reader.GetU32();
  if (!n_blocks.ok()) return n_blocks.status();
  if (*n_blocks > reader.remaining()) {  // Each block model is >= 5 bytes.
    return Status::Corruption("SZ block count exceeds payload");
  }
  std::vector<BlockModel> models(*n_blocks);
  for (BlockModel& m : models) {
    Result<uint8_t> p = reader.GetU8();
    if (!p.ok()) return p.status();
    if (*p > static_cast<uint8_t>(PredictorId::kLinearRegression)) {
      return Status::Corruption("invalid SZ predictor id");
    }
    m.predictor = static_cast<PredictorId>(*p);
    Result<uint32_t> bound_bits = reader.GetU32();
    if (!bound_bits.ok()) return bound_bits.status();
    uint32_t bits = *bound_bits;
    std::memcpy(&m.abs_bound, &bits, sizeof(m.abs_bound));
    if (m.predictor == PredictorId::kMeanLorenzo) {
      Result<double> mean = reader.GetDouble();
      if (!mean.ok()) return mean.status();
      m.mean = *mean;
    } else if (m.predictor == PredictorId::kLinearRegression) {
      Result<double> a = reader.GetDouble();
      if (!a.ok()) return a.status();
      Result<double> b = reader.GetDouble();
      if (!b.ok()) return b.status();
      m.a = *a;
      m.b = *b;
    }
  }

  Result<std::vector<int>> decoded_symbols =
      ReadSymbols(reader, *n_nonzero,
                  static_cast<uint32_t>(unpredictable_symbol) + 1, "SZ");
  if (!decoded_symbols.ok()) return decoded_symbols.status();
  const std::vector<int>& symbols = *decoded_symbols;

  Result<uint32_t> n_unpredictable = reader.GetU32();
  if (!n_unpredictable.ok()) return n_unpredictable.status();
  if (*n_unpredictable > reader.remaining() / sizeof(double)) {
    return Status::Corruption("SZ unpredictable count exceeds payload");
  }
  std::vector<double> unpredictable(*n_unpredictable);
  for (double& x : unpredictable) {
    Result<double> val = reader.GetDouble();
    if (!val.ok()) return val.status();
    x = *val;
  }

  // Reconstruct the non-zero stream block by block, with the block's
  // predictor resolved once; the per-point arithmetic is PredictValue's.
  std::vector<double> w(*n_nonzero);
  double prev_rec = 0.0;
  size_t unpred_pos = 0;
  const auto reconstruct = [&](size_t begin, size_t end, double delta,
                               auto predict) {
    for (size_t i = begin; i < end; ++i) {
      const int sym = symbols[i];
      if (sym == unpredictable_symbol) {
        if (unpred_pos >= unpredictable.size()) return false;
        w[i] = unpredictable[unpred_pos++];
      } else {
        w[i] = ReconstructValue(predict(i - begin, prev_rec), delta,
                                sym - radius);
      }
      prev_rec = w[i];
    }
    return true;
  };
  const size_t block_size = options_.block_size;
  for (size_t begin = 0, block = 0; begin < w.size();
       begin += block_size, ++block) {
    if (block >= models.size()) {
      return Status::Corruption("SZ block stream shorter than symbol stream");
    }
    const BlockModel& m = models[block];
    const size_t end = std::min(begin + block_size, w.size());
    const double delta = static_cast<double>(m.abs_bound);
    bool complete = false;
    switch (m.predictor) {
      case PredictorId::kLorenzo:
        complete = reconstruct(begin, end, delta,
                               [](size_t, double prev) { return prev; });
        break;
      case PredictorId::kMeanLorenzo:
        complete = reconstruct(begin, end, delta,
                               [&m](size_t, double) { return m.mean; });
        break;
      case PredictorId::kLinearRegression:
        complete = reconstruct(begin, end, delta, [&m](size_t k, double) {
          return LinearPrediction(m, k);
        });
        break;
    }
    if (!complete) {
      return Status::Corruption("SZ unpredictable stream exhausted");
    }
  }

  // Merge zeros back in. The class pass counted the non-zero classes, so a
  // stream that disagrees with n_nonzero fails here with the status the
  // point-by-point merge reports.
  if (nonzero_classes > w.size()) {
    return Status::Corruption("SZ class stream inconsistent");
  }
  if (nonzero_classes < w.size()) {
    return Status::Corruption("SZ nonzero count mismatch");
  }
  std::vector<double> values;
  if (w.size() == header->num_points) {
    values = std::move(w);
  } else {
    values.resize(header->num_points);
    size_t j = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = classes[i] == kZero ? 0.0 : w[j++];
    }
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress
