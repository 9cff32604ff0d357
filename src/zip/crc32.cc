#include "zip/crc32.h"

#include <cstring>

namespace lossyts::zip {

namespace {

// t[0] is the classic one-table CRC-32 (IEEE, reflected); t[s][b] is the CRC
// of byte b followed by s zero bytes, which lets slice-by-8 fold eight input
// bytes per step.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables tb;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      tb.t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t p = tb.t[s - 1][i];
        tb.t[s][i] = (p >> 8) ^ tb.t[0][p & 0xFFu];
      }
    }
    return tb;
  }();
  return tables;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap32(w);
#endif
  return w;
}

uint32_t ByteLoop(const Crc32Tables& tb, uint32_t state, const uint8_t* data,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) {
    state = tb.t[0][(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

void Crc32::Update(std::span<const uint8_t> bytes) {
  const uint8_t* data = bytes.data();
  size_t size = bytes.size();
  const Crc32Tables& tb = Tables();
  uint32_t state = state_;
  while (size >= 8) {
    const uint32_t lo = LoadLe32(data) ^ state;
    const uint32_t hi = LoadLe32(data + 4);
    state = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^
            tb.t[5][(lo >> 16) & 0xFFu] ^ tb.t[4][lo >> 24] ^
            tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
            tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
  state_ = ByteLoop(tb, state, data, size);
}

uint32_t ComputeCrc32(std::span<const uint8_t> bytes) {
  Crc32 crc;
  crc.Update(bytes);
  return crc.value();
}

uint32_t ComputeCrc32Reference(std::span<const uint8_t> bytes) {
  return ByteLoop(Tables(), 0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

}  // namespace lossyts::zip
