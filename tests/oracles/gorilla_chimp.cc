#include "oracles/gorilla_chimp.h"

#include <cstring>

#include "oracles/bitstream.h"

namespace lossyts::oracles {

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

constexpr int kChimpLeadingTable[8] = {0, 8, 12, 16, 18, 20, 22, 24};

int ChimpLeadingCode(int leading) {
  int code = 0;
  for (int i = 0; i < 8; ++i) {
    if (kChimpLeadingTable[i] <= leading) code = i;
  }
  return code;
}

}  // namespace

// ---- Reference Gorilla: the same bit format, one bit at a time. ----------

std::vector<uint8_t> ReferenceGorillaEncode(const TimeSeries& series) {
  ReferenceBitWriter bits;
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
  ReferenceBitReader bits(payload);
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

std::vector<uint8_t> ReferenceChimpEncode(const TimeSeries& series) {
  ReferenceBitWriter bits;
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
  ReferenceBitReader bits(payload);
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

}  // namespace lossyts::oracles
