// Engineering microbench for the codec hot paths. Self-checking plain
// binary (no google-benchmark): it re-implements the Gorilla and Chimp bit
// formats on the bit-at-a-time ReferenceBitWriter/ReferenceBitReader — the
// shape the production coders had before the batched 64-bit streams and the
// SIMD XOR pass — and requires
//
//   * byte identity: the reference encoder's payload must equal the payload
//     the production coder emits (the formats are contractually identical),
//   * value identity: both decoders reconstruct the input bit-for-bit
//     (Gorilla/Chimp are lossless),
//   * a round-trip speedup of the production path over the in-process
//     reference of at least LOSSYTS_MICRO_COMPRESSION_SPEEDUP (default 4x)
//     on BOTH Gorilla and Chimp.
//
// The floor is self-relative — both sides run in this process on this
// machine — so it holds on any host, unlike an absolute wall-clock budget.
// SZ/PMC/Swing/gzip throughputs are reported for the record but have no
// floor here; their correctness lives in the conform harness. LFZIP and
// CAMEO carry their own self-relative acceptance floors (pointwise bound +
// compressed-size factor vs the raw 8-byte values) via CheckLossyCodec.
//
// Usage: micro_compression [--points N] [--reps N]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "compress/cameo.h"
#include "compress/chimp.h"
#include "compress/compressor.h"
#include "compress/gorilla.h"
#include "compress/lfzip.h"
#include "compress/pmc.h"
#include "compress/swing.h"
#include "compress/sz.h"
#include "core/rng.h"
#include "zip/bitstream.h"
#include "zip/gzip.h"

namespace {

using Clock = std::chrono::steady_clock;
using lossyts::bench::MakeRandomWalkSeries;
using lossyts::bench::MsSince;
using lossyts::bench::ParseIntFlag;
using lossyts::Result;
using lossyts::TimeSeries;

uint64_t DoubleToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

int LeadingZeros(uint64_t x) { return x == 0 ? 64 : __builtin_clzll(x); }
int TrailingZeros(uint64_t x) { return x == 0 ? 64 : __builtin_ctzll(x); }

// ---- Reference Gorilla: the same bit format, one bit at a time. ----------

std::vector<uint8_t> ReferenceGorillaEncode(const TimeSeries& series) {
  lossyts::zip::ReferenceBitWriter bits;
  bits.WriteBitsMsbFirst(DoubleToBits(series[0]), 64);
  uint64_t prev = DoubleToBits(series[0]);
  int prev_leading = -1;
  int prev_trailing = -1;
  for (size_t i = 1; i < series.size(); ++i) {
    const uint64_t cur = DoubleToBits(series[i]);
    const uint64_t x = cur ^ prev;
    prev = cur;
    if (x == 0) {
      bits.WriteBits(0, 1);
      continue;
    }
    bits.WriteBits(1, 1);
    int leading = LeadingZeros(x);
    const int trailing = TrailingZeros(x);
    if (leading > 31) leading = 31;
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      bits.WriteBits(0, 1);
      bits.WriteBitsMsbFirst(x >> prev_trailing,
                             64 - prev_leading - prev_trailing);
    } else {
      bits.WriteBits(1, 1);
      const int meaningful = 64 - leading - trailing;
      bits.WriteBits(static_cast<uint32_t>(leading), 5);
      bits.WriteBits(static_cast<uint32_t>(meaningful - 1), 6);
      bits.WriteBitsMsbFirst(x >> trailing, meaningful);
      prev_leading = leading;
      prev_trailing = trailing;
    }
  }
  return bits.Finish();
}

std::vector<double> ReferenceGorillaDecode(const std::vector<uint8_t>& payload,
                                           size_t count) {
  lossyts::zip::ReferenceBitReader bits(payload);
  std::vector<double> values;
  values.reserve(count);
  uint64_t prev = *bits.ReadBitsMsbFirst(64);
  values.push_back(BitsToDouble(prev));
  int leading = 0;
  int trailing = 0;
  while (values.size() < count) {
    if (*bits.ReadBit() == 0) {
      values.push_back(BitsToDouble(prev));
      continue;
    }
    if (*bits.ReadBit() == 1) {
      leading = static_cast<int>(*bits.ReadBits(5));
      trailing = 64 - leading - (static_cast<int>(*bits.ReadBits(6)) + 1);
    }
    const int meaningful = 64 - leading - trailing;
    prev ^= *bits.ReadBitsMsbFirst(meaningful) << trailing;
    values.push_back(BitsToDouble(prev));
  }
  return values;
}

// ---- Reference Chimp: the same bit format, one bit at a time. ------------

constexpr int kChimpLeadingTable[8] = {0, 8, 12, 16, 18, 20, 22, 24};

int ChimpLeadingCode(int leading) {
  int code = 0;
  for (int i = 0; i < 8; ++i) {
    if (kChimpLeadingTable[i] <= leading) code = i;
  }
  return code;
}

std::vector<uint8_t> ReferenceChimpEncode(const TimeSeries& series) {
  lossyts::zip::ReferenceBitWriter bits;
  bits.WriteBitsMsbFirst(DoubleToBits(series[0]), 64);
  uint64_t prev = DoubleToBits(series[0]);
  int prev_leading = -1;
  for (size_t i = 1; i < series.size(); ++i) {
    const uint64_t cur = DoubleToBits(series[i]);
    const uint64_t x = cur ^ prev;
    prev = cur;
    if (x == 0) {
      bits.WriteBits(0b00, 2);
      prev_leading = -1;
      continue;
    }
    const int leading_code = ChimpLeadingCode(LeadingZeros(x));
    const int leading = kChimpLeadingTable[leading_code];
    const int trailing = TrailingZeros(x);
    if (trailing > 6) {
      const int significant = 64 - leading - trailing;
      bits.WriteBits(0b10, 2);
      bits.WriteBits(static_cast<uint32_t>(leading_code), 3);
      bits.WriteBits(static_cast<uint32_t>(significant), 6);
      bits.WriteBitsMsbFirst(x >> trailing, significant);
      prev_leading = -1;
    } else if (leading == prev_leading) {
      bits.WriteBits(0b01, 2);
      bits.WriteBitsMsbFirst(x, 64 - leading);
    } else {
      bits.WriteBits(0b11, 2);
      bits.WriteBits(static_cast<uint32_t>(leading_code), 3);
      bits.WriteBitsMsbFirst(x, 64 - leading);
      prev_leading = leading;
    }
  }
  return bits.Finish();
}

std::vector<double> ReferenceChimpDecode(const std::vector<uint8_t>& payload,
                                         size_t count) {
  lossyts::zip::ReferenceBitReader bits(payload);
  std::vector<double> values;
  values.reserve(count);
  uint64_t prev = *bits.ReadBitsMsbFirst(64);
  values.push_back(BitsToDouble(prev));
  int prev_leading = -1;
  while (values.size() < count) {
    const uint32_t control = *bits.ReadBits(2);
    uint64_t x = 0;
    if (control == 0b00) {
      prev_leading = -1;
    } else if (control == 0b10) {
      const int leading = kChimpLeadingTable[*bits.ReadBits(3)];
      const int significant = static_cast<int>(*bits.ReadBits(6));
      x = *bits.ReadBitsMsbFirst(significant) << (64 - leading - significant);
      prev_leading = -1;
    } else if (control == 0b01) {
      x = *bits.ReadBitsMsbFirst(64 - prev_leading);
    } else {
      prev_leading = kChimpLeadingTable[*bits.ReadBits(3)];
      x = *bits.ReadBitsMsbFirst(64 - prev_leading);
    }
    prev ^= x;
    values.push_back(BitsToDouble(prev));
  }
  return values;
}

bool BitwiseEqual(const std::vector<double>& a, const TimeSeries& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (DoubleToBits(a[i]) != DoubleToBits(b[i])) return false;
  }
  return true;
}

// Times one production round trip (best of `reps`) against the reference
// round trip and enforces the self-relative speedup floor plus the byte and
// value identity checks. Returns false on any breach.
template <typename Codec, typename RefEncode, typename RefDecode>
bool CheckCodec(const char* name, const TimeSeries& series, int reps,
                double floor, RefEncode ref_encode, RefDecode ref_decode) {
  Codec codec;
  bool ok = true;

  // Correctness pass (untimed; doubles as warm-up).
  std::vector<uint8_t> blob;
  std::vector<uint8_t> ref_payload;
  {
    Result<std::vector<uint8_t>> b = codec.Compress(series, 0.05);
    Result<TimeSeries> d = b.ok() ? codec.Decompress(*b)
                                  : Result<TimeSeries>(b.status());
    if (!b.ok() || !d.ok()) {
      std::fprintf(stderr, "micro_compression: %s round trip failed\n", name);
      return false;
    }
    if (!BitwiseEqual(d->values(), series)) {
      std::fprintf(stderr,
                   "micro_compression: %s decode is not bit-identical to the "
                   "input\n",
                   name);
      ok = false;
    }
    blob = std::move(*b);
    ref_payload = ref_encode(series);
    if (!BitwiseEqual(ref_decode(ref_payload, series.size()), series)) {
      std::fprintf(stderr,
                   "micro_compression: %s reference decode is not "
                   "bit-identical to the input\n",
                   name);
      ok = false;
    }
  }

  // Timing: fast and reference round trips run back to back inside each
  // rep, and the floor is checked against the best PAIRED ratio — a noise
  // burst (other tenants, frequency shifts) then hits both sides of a pair
  // rather than biasing one, which a best-of-each-block scheme cannot
  // guarantee on a shared host.
  double fast_ms = 0.0;
  double ref_ms = 0.0;
  double best_ratio = 0.0;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point start = Clock::now();
    Result<std::vector<uint8_t>> b = codec.Compress(series, 0.05);
    Result<TimeSeries> d = codec.Decompress(*b);
    const double fast = MsSince(start);
    if (!b.ok() || !d.ok() || d->size() != series.size()) {
      std::fprintf(stderr, "micro_compression: %s round trip failed\n", name);
      return false;
    }

    start = Clock::now();
    std::vector<uint8_t> payload = ref_encode(series);
    std::vector<double> values = ref_decode(payload, series.size());
    const double ref = MsSince(start);
    if (values.size() != series.size()) {
      std::fprintf(stderr, "micro_compression: %s reference failed\n", name);
      return false;
    }

    if (r == 0 || fast < fast_ms) fast_ms = fast;
    if (r == 0 || ref < ref_ms) ref_ms = ref;
    if (ref / fast > best_ratio) best_ratio = ref / fast;
  }

  // Byte identity: the production blob is header + u32 payload size +
  // payload, and the payload must be exactly what the reference emits.
  if (blob.size() < ref_payload.size() ||
      std::memcmp(blob.data() + blob.size() - ref_payload.size(),
                  ref_payload.data(), ref_payload.size()) != 0) {
    std::fprintf(stderr,
                 "micro_compression: %s payload differs from the reference "
                 "encoder's bytes\n",
                 name);
    ok = false;
  }

  const double mpts = static_cast<double>(series.size()) / fast_ms / 1e3;
  std::printf(
      "micro_compression %-7s round-trip %8.3fms (%6.2f Mpts/s)  "
      "reference %8.3fms  speedup %.1fx\n",
      name, fast_ms, mpts, ref_ms, best_ratio);
  if (best_ratio < floor) {
    std::fprintf(stderr,
                 "micro_compression: %s speedup %.2fx breaches the %.1fx "
                 "floor\n",
                 name, best_ratio, floor);
    ok = false;
  }
  return ok;
}

// Reports throughput for a lossy codec (no floor; the bound contract is the
// conform harness's job — here we only require the round trip to succeed
// and preserve the length).
template <typename Codec>
bool ReportLossy(const char* name, const TimeSeries& series, int reps) {
  Codec codec;
  double comp_ms = 0.0, decomp_ms = 0.0;
  std::vector<uint8_t> blob;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    Result<std::vector<uint8_t>> b = codec.Compress(series, 0.05);
    const double ms = MsSince(start);
    if (!b.ok()) {
      std::fprintf(stderr, "micro_compression: %s compress failed\n", name);
      return false;
    }
    if (r == 0 || ms < comp_ms) comp_ms = ms;
    blob = std::move(*b);
  }
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    Result<TimeSeries> d = codec.Decompress(blob);
    const double ms = MsSince(start);
    if (!d.ok() || d->size() != series.size()) {
      std::fprintf(stderr, "micro_compression: %s decompress failed\n", name);
      return false;
    }
    if (r == 0 || ms < decomp_ms) decomp_ms = ms;
  }
  const double n = static_cast<double>(series.size());
  std::printf(
      "micro_compression %-7s compress %8.3fms (%6.2f Mpts/s)  "
      "decompress %8.3fms (%6.2f Mpts/s)\n",
      name, comp_ms, n / comp_ms / 1e3, decomp_ms, n / decomp_ms / 1e3);
  return true;
}

// Acceptance row for a lossy codec: times the round trip like ReportLossy,
// then enforces two floors that are self-relative — both sides of each
// comparison are computed in this process from this input — so they hold on
// any host, unlike wall-clock budgets:
//  * every decoded point lies inside its closed relative allowance
//    [v − ε·|v|, v + ε·|v|] (the Definition 4 contract, spot-checked here so
//    a bench-only regression cannot ship between conform runs),
//  * the blob is at least `size_floor`x smaller than the 8-byte raw values
//    it encodes — the codec must actually compress this easy, strongly
//    autocorrelated series, not just round-trip it.
template <typename Codec>
bool CheckLossyCodec(const char* name, const TimeSeries& series, int reps,
                     double eb, double size_floor) {
  Codec codec;
  double comp_ms = 0.0, decomp_ms = 0.0;
  std::vector<uint8_t> blob;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    Result<std::vector<uint8_t>> b = codec.Compress(series, eb);
    const double ms = MsSince(start);
    if (!b.ok()) {
      std::fprintf(stderr, "micro_compression: %s compress failed\n", name);
      return false;
    }
    if (r == 0 || ms < comp_ms) comp_ms = ms;
    blob = std::move(*b);
  }
  Result<TimeSeries> decoded = codec.Decompress(blob);
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    Result<TimeSeries> d = codec.Decompress(blob);
    const double ms = MsSince(start);
    if (!d.ok() || d->size() != series.size()) {
      std::fprintf(stderr, "micro_compression: %s decompress failed\n", name);
      return false;
    }
    if (r == 0 || ms < decomp_ms) decomp_ms = ms;
  }

  bool ok = true;
  for (size_t i = 0; i < series.size(); ++i) {
    const lossyts::compress::Allowance a =
        lossyts::compress::RelativeAllowance(series[i], eb);
    const double rec = (*decoded)[i];
    if (!((rec >= a.lo) && (rec <= a.hi))) {
      std::fprintf(stderr,
                   "micro_compression: %s breaks the pointwise bound at "
                   "index %zu (%.17g not in [%.17g, %.17g])\n",
                   name, i, rec, a.lo, a.hi);
      ok = false;
      break;
    }
  }

  const double raw_bytes = static_cast<double>(series.size()) * 8.0;
  const double factor = raw_bytes / static_cast<double>(blob.size());
  const double n = static_cast<double>(series.size());
  std::printf(
      "micro_compression %-7s compress %8.3fms (%6.2f Mpts/s)  "
      "decompress %8.3fms (%6.2f Mpts/s)  %5.1fx vs raw\n",
      name, comp_ms, n / comp_ms / 1e3, decomp_ms, n / decomp_ms / 1e3,
      factor);
  if (factor < size_floor) {
    std::fprintf(stderr,
                 "micro_compression: %s factor %.2fx vs raw breaches the "
                 "%.1fx floor\n",
                 name, factor, size_floor);
    ok = false;
  }
  return ok;
}

bool ReportGzip(size_t bytes, int reps) {
  lossyts::Rng rng(1);
  std::vector<uint8_t> data(bytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.UniformInt(16));
  double comp_ms = 0.0, decomp_ms = 0.0;
  std::vector<uint8_t> gz;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    std::vector<uint8_t> out = lossyts::zip::GzipCompress(data);
    const double ms = MsSince(start);
    if (r == 0 || ms < comp_ms) comp_ms = ms;
    gz = std::move(out);
  }
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    Result<std::vector<uint8_t>> out = lossyts::zip::GzipDecompress(gz);
    const double ms = MsSince(start);
    if (!out.ok() || *out != data) {
      std::fprintf(stderr, "micro_compression: gzip round trip failed\n");
      return false;
    }
    if (r == 0 || ms < decomp_ms) decomp_ms = ms;
  }
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  std::printf(
      "micro_compression gzip    compress %8.3fms (%6.2f MB/s)    "
      "decompress %8.3fms (%6.2f MB/s)\n",
      comp_ms, mb / comp_ms * 1e3, decomp_ms, mb / decomp_ms * 1e3);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int points = ParseIntFlag(argc, argv, "--points", 1 << 17);
  const int reps = ParseIntFlag(argc, argv, "--reps", 5);
  double floor = 4.0;
  if (const char* env = std::getenv("LOSSYTS_MICRO_COMPRESSION_SPEEDUP")) {
    if (std::atof(env) > 0) floor = std::atof(env);
  }

  const TimeSeries series = MakeRandomWalkSeries(static_cast<size_t>(points));
  bool ok = true;
  ok &= CheckCodec<lossyts::compress::GorillaCompressor>(
      "GORILLA", series, reps, floor, ReferenceGorillaEncode,
      ReferenceGorillaDecode);
  ok &= CheckCodec<lossyts::compress::ChimpCompressor>(
      "CHIMP", series, reps, floor, ReferenceChimpEncode,
      ReferenceChimpDecode);
  ok &= ReportLossy<lossyts::compress::PmcCompressor>("PMC", series, reps);
  ok &= ReportLossy<lossyts::compress::SwingCompressor>("SWING", series, reps);
  ok &= ReportLossy<lossyts::compress::SzCompressor>("SZ", series, reps);
  // The two post-paper codecs carry acceptance floors (bound + size factor);
  // the floors are conservative halves of the factors observed on this
  // fixed-seed series, so they flag format regressions, not host noise.
  ok &= CheckLossyCodec<lossyts::compress::LfzipCompressor>("LFZIP", series,
                                                            reps, 0.05, 3.5);
  ok &= CheckLossyCodec<lossyts::compress::CameoCompressor>(
      "CAMEO", series, reps, 0.05, 1000.0);
  ok &= ReportGzip(1 << 20, reps);

  if (ok) {
    std::printf(
        "micro_compression: OK (payloads byte-identical to the reference "
        "coders, speedup floor %.1fx held)\n",
        floor);
  }
  return ok ? 0 : 1;
}
