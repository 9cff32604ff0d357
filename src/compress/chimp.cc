#include "compress/chimp.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "compress/header.h"
#include "compress/serde.h"
#include "core/simd.h"
#include "zip/bitstream.h"

namespace lossyts::compress {

namespace {

// Chimp rounds leading-zero counts down to one of eight values so the count
// fits a 3-bit code.
constexpr int kLeadingTable[8] = {0, 8, 12, 16, 18, 20, 22, 24};

// leading-zero count (0..64) -> largest code whose table entry is <= it.
struct LeadingCodeLut {
  uint8_t code[65];
  constexpr LeadingCodeLut() : code{} {
    for (int leading = 0; leading <= 64; ++leading) {
      int c = 0;
      for (int i = 0; i < 8; ++i) {
        if (kLeadingTable[i] <= leading) c = i;
      }
      code[leading] = static_cast<uint8_t>(c);
    }
  }
};
constexpr LeadingCodeLut kLeadingCodeLut;

int LeadingCode(int leading) { return kLeadingCodeLut.code[leading]; }

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

Result<std::vector<uint8_t>> ChimpCompressor::Compress(
    const TimeSeries& series, double /*error_bound*/) const {
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  zip::BitWriter bits;
  bits.WriteBitsMsbFirst(DoubleToBits(series[0]), 64);

  // One pass over the XOR deltas; the stream depends only on these words.
  std::vector<uint64_t> xors(series.size() > 1 ? series.size() - 1 : 0);
  if (!xors.empty()) {
    simd::XorDeltas(series.values().data(), series.size(), xors.data());
  }

  int prev_leading = -1;
  for (size_t i = 1; i < series.size(); ++i) {
    const uint64_t x = xors[i - 1];
    if (x == 0) {
      bits.WriteBits(0b00, 2);
      prev_leading = -1;  // Chimp resets the reuse state on identical values.
      continue;
    }
    const int leading_code = LeadingCode(LeadingZeros(x));
    const int leading = kLeadingTable[leading_code];
    const int trailing = TrailingZeros(x);
    if (trailing > 6) {
      // '01': center-bits case for XORs with a long zero tail. The control
      // pair (LSB-first as 0b10), the 3-bit leading code and the 6-bit
      // significant count pack into one 11-bit write — same bits on the
      // wire, one buffer pass.
      const int significant = 64 - leading - trailing;
      bits.WriteBits(0b10u | (static_cast<uint32_t>(leading_code) << 2) |
                         (static_cast<uint32_t>(significant) << 5),
                     11);
      bits.WriteBitsMsbFirst(x >> trailing, significant);
      prev_leading = -1;
    } else if (leading == prev_leading) {
      // '10': reuse the previous leading-zero count.
      bits.WriteBits(0b01, 2);
      bits.WriteBitsMsbFirst(x, 64 - leading);
    } else {
      // '11': transmit a new leading-zero count (control + code in one
      // 5-bit write).
      bits.WriteBits(0b11u | (static_cast<uint32_t>(leading_code) << 2), 5);
      bits.WriteBitsMsbFirst(x, 64 - leading);
      prev_leading = leading;
    }
  }

  ByteWriter writer;
  WriteHeader(MakeHeader(AlgorithmId::kChimp, series), writer);
  std::vector<uint8_t> payload = bits.Finish();
  if (Status s = PutCountU32(writer, payload.size(), "Chimp payload");
      !s.ok()) {
    return s;
  }
  writer.PutBytes(payload);
  return writer.Finish();
}

namespace {

// Shared decode core: reconstructs the first min(limit, num_points) values,
// mirroring gorilla.cc's DecodeGorilla — the early-stop path is the same
// sequential walk, just cut short.
Result<TimeSeries> DecodeChimp(std::span<const uint8_t> blob, size_t limit) {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kChimp);
  if (!header.ok()) return header.status();
  Result<uint32_t> payload_size = reader.GetU32();
  if (!payload_size.ok()) return payload_size.status();
  if (*payload_size > reader.remaining()) {
    return Status::Corruption("Chimp payload truncated");
  }
  zip::BitReader bits({reader.current(), *payload_size});
  if (header->num_points == 0) {
    return Status::Corruption("Chimp blob with zero points");
  }

  const size_t target = std::min<size_t>(limit, header->num_points);
  std::vector<double> values;
  values.reserve(SafeReserve(static_cast<uint32_t>(target)));
  Result<uint64_t> first = bits.ReadBitsMsbFirst(64);
  if (!first.ok()) return first.status();
  uint64_t prev = *first;
  values.push_back(BitsToDouble(prev));

  int prev_leading = -1;
  while (values.size() < target) {
    uint64_t x = 0;
    if (bits.RemainingBits() >= 75) {
      // Hot path: the longest token is 11 header bits plus a 64-bit tail,
      // so with >= 75 bits left every read below must succeed and the
      // small fields can come from a single unchecked peek. Same bits,
      // same corruption checks, same results as the checked path below.
      const uint64_t peek = bits.PeekPadded(11);
      switch (peek & 3u) {
        case 0b00:  // Identical value.
          bits.DropBits(2);
          prev_leading = -1;
          break;
        case 0b10: {  // Center-bits case.
          const int significant = static_cast<int>((peek >> 5) & 63u);
          const int leading = kLeadingTable[(peek >> 2) & 7u];
          const int trailing = 64 - leading - significant;
          if (significant == 0 || trailing < 0) {
            return Status::Corruption("Chimp bad bit counts");
          }
          bits.DropBits(11);
          x = *bits.ReadBitsMsbFirst(significant) << trailing;
          prev_leading = -1;
          break;
        }
        case 0b01: {  // Reuse previous leading count.
          if (prev_leading < 0) {
            return Status::Corruption("Chimp reuse before a leading count");
          }
          bits.DropBits(2);
          x = *bits.ReadBitsMsbFirst(64 - prev_leading);
          break;
        }
        default: {  // 0b11: new leading count.
          prev_leading = kLeadingTable[(peek >> 2) & 7u];
          bits.DropBits(5);
          x = *bits.ReadBitsMsbFirst(64 - prev_leading);
          break;
        }
      }
      prev ^= x;
      values.push_back(BitsToDouble(prev));
      continue;
    }
    Result<uint32_t> control = bits.ReadBits(2);
    if (!control.ok()) return control.status();
    switch (*control) {
      case 0b00:  // Identical value.
        prev_leading = -1;
        break;
      case 0b10: {  // Center-bits case (written as pair (0,1)).
        // One 9-bit read covers the 3-bit leading code and the 6-bit
        // significant count (LSB-first, so the code is the low 3 bits).
        Result<uint32_t> fields = bits.ReadBits(9);
        if (!fields.ok()) return fields.status();
        const uint32_t significant_field = *fields >> 3;
        const int leading = kLeadingTable[*fields & 7u];
        const int trailing = 64 - leading - static_cast<int>(significant_field);
        // significant == 0 never leaves the encoder (a zero XOR is the '00'
        // control) and would make the shift below exceed 63.
        if (significant_field == 0 || trailing < 0) {
          return Status::Corruption("Chimp bad bit counts");
        }
        Result<uint64_t> center =
            bits.ReadBitsMsbFirst(static_cast<int>(significant_field));
        if (!center.ok()) return center.status();
        x = *center << trailing;
        prev_leading = -1;
        break;
      }
      case 0b01: {  // Reuse previous leading count.
        if (prev_leading < 0) {
          return Status::Corruption("Chimp reuse before a leading count");
        }
        Result<uint64_t> tail = bits.ReadBitsMsbFirst(64 - prev_leading);
        if (!tail.ok()) return tail.status();
        x = *tail;
        break;
      }
      case 0b11: {  // New leading count.
        Result<uint32_t> leading_code = bits.ReadBits(3);
        if (!leading_code.ok()) return leading_code.status();
        prev_leading = kLeadingTable[*leading_code];
        Result<uint64_t> tail = bits.ReadBitsMsbFirst(64 - prev_leading);
        if (!tail.ok()) return tail.status();
        x = *tail;
        break;
      }
      default:
        return Status::Corruption("Chimp invalid control bits");
    }
    prev ^= x;
    values.push_back(BitsToDouble(prev));
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace

Result<TimeSeries> ChimpCompressor::Decompress(
    std::span<const uint8_t> blob) const {
  return DecodeChimp(blob, std::numeric_limits<size_t>::max());
}

Result<TimeSeries> ChimpCompressor::DecompressPrefix(
    std::span<const uint8_t> blob, size_t max_points) const {
  if (max_points == 0) {
    return Status::InvalidArgument("prefix decode requires max_points >= 1");
  }
  return DecodeChimp(blob, max_points);
}

}  // namespace lossyts::compress
