#include "oracles/crc32.h"

#include <array>

namespace lossyts::oracles {

uint32_t ReferenceCrc32(std::span<const uint8_t> bytes) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t state = 0xFFFFFFFFu;
  for (uint8_t b : bytes) state = table[(state ^ b) & 0xFFu] ^ (state >> 8);
  return state ^ 0xFFFFFFFFu;
}

}  // namespace lossyts::oracles
