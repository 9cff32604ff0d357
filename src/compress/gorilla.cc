#include "compress/gorilla.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "compress/header.h"
#include "compress/serde.h"
#include "core/simd.h"
#include "zip/bitstream.h"

namespace lossyts::compress {

namespace {

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

}  // namespace

Result<std::vector<uint8_t>> GorillaCompressor::Compress(
    const TimeSeries& series, double /*error_bound*/) const {
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  zip::BitWriter bits;
  bits.WriteBitsMsbFirst(DoubleToBits(series[0]), 64);

  // Precompute all consecutive XOR deltas in one pass; the bit format is a
  // pure function of these words.
  std::vector<uint64_t> xors(series.size() > 1 ? series.size() - 1 : 0);
  if (!xors.empty()) {
    simd::XorDeltas(series.values().data(), series.size(), xors.data());
  }

  int prev_leading = -1;
  int prev_trailing = -1;
  for (size_t i = 1; i < series.size(); ++i) {
    const uint64_t x = xors[i - 1];
    if (x == 0) {
      bits.WriteBits(0, 1);
      continue;
    }
    bits.WriteBits(1, 1);
    int leading = LeadingZeros(x);
    const int trailing = TrailingZeros(x);
    if (leading > 31) leading = 31;  // The field is 5 bits wide.
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      // Control '0': reuse the previous window.
      bits.WriteBits(0, 1);
      const int meaningful = 64 - prev_leading - prev_trailing;
      bits.WriteBitsMsbFirst(x >> prev_trailing, meaningful);
    } else {
      // Control '1': transmit a new window.
      bits.WriteBits(1, 1);
      const int meaningful = 64 - leading - trailing;
      bits.WriteBits(static_cast<uint32_t>(leading), 5);
      // Store meaningful-1 in 6 bits (meaningful is in 1..64).
      bits.WriteBits(static_cast<uint32_t>(meaningful - 1), 6);
      bits.WriteBitsMsbFirst(x >> trailing, meaningful);
      prev_leading = leading;
      prev_trailing = trailing;
    }
  }

  ByteWriter writer;
  WriteHeader(MakeHeader(AlgorithmId::kGorilla, series), writer);
  std::vector<uint8_t> payload = bits.Finish();
  if (Status s = PutCountU32(writer, payload.size(), "Gorilla payload");
      !s.ok()) {
    return s;
  }
  writer.PutBytes(payload);
  return writer.Finish();
}

namespace {

// Shared decode core: reconstructs the first min(limit, num_points) values.
// The XOR chain has no random access, so both the full decode and the
// early-stop prefix path walk it identically and differ only in where they
// stop — which is what keeps the two bit-identical.
Result<TimeSeries> DecodeGorilla(std::span<const uint8_t> blob, size_t limit) {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kGorilla);
  if (!header.ok()) return header.status();
  Result<uint32_t> payload_size = reader.GetU32();
  if (!payload_size.ok()) return payload_size.status();
  if (*payload_size > reader.remaining()) {
    return Status::Corruption("Gorilla payload truncated");
  }
  zip::BitReader bits({reader.current(), *payload_size});

  if (header->num_points == 0) {
    return Status::Corruption("Gorilla blob with zero points");
  }
  const size_t target = std::min<size_t>(limit, header->num_points);
  std::vector<double> values;
  values.reserve(SafeReserve(static_cast<uint32_t>(target)));

  Result<uint64_t> first = bits.ReadBitsMsbFirst(64);
  if (!first.ok()) return first.status();
  uint64_t prev = *first;
  values.push_back(BitsToDouble(prev));

  int leading = 0;
  int trailing = 0;
  bool window_set = false;
  while (values.size() < target) {
    Result<uint32_t> nonzero = bits.ReadBit();
    if (!nonzero.ok()) return nonzero.status();
    if (*nonzero == 0) {
      values.push_back(BitsToDouble(prev));
      continue;
    }
    Result<uint32_t> new_window = bits.ReadBit();
    if (!new_window.ok()) return new_window.status();
    if (*new_window == 1) {
      Result<uint32_t> lead = bits.ReadBits(5);
      if (!lead.ok()) return lead.status();
      Result<uint32_t> mlen = bits.ReadBits(6);
      if (!mlen.ok()) return mlen.status();
      leading = static_cast<int>(*lead);
      const int meaningful = static_cast<int>(*mlen) + 1;
      trailing = 64 - leading - meaningful;
      if (trailing < 0) return Status::Corruption("Gorilla window invalid");
      window_set = true;
    } else if (!window_set) {
      return Status::Corruption("Gorilla reuses window before defining one");
    }
    const int meaningful = 64 - leading - trailing;
    Result<uint64_t> xbits = bits.ReadBitsMsbFirst(meaningful);
    if (!xbits.ok()) return xbits.status();
    const uint64_t x = *xbits << trailing;
    prev ^= x;
    values.push_back(BitsToDouble(prev));
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace

Result<TimeSeries> GorillaCompressor::Decompress(
    std::span<const uint8_t> blob) const {
  return DecodeGorilla(blob, std::numeric_limits<size_t>::max());
}

Result<TimeSeries> GorillaCompressor::DecompressPrefix(
    std::span<const uint8_t> blob, size_t max_points) const {
  if (max_points == 0) {
    return Status::InvalidArgument("prefix decode requires max_points >= 1");
  }
  return DecodeGorilla(blob, max_points);
}

}  // namespace lossyts::compress
