#ifndef LOSSYTS_TESTS_ORACLES_CRC32_H_
#define LOSSYTS_TESTS_ORACLES_CRC32_H_

#include <cstdint>
#include <span>

namespace lossyts::oracles {

/// One-shot CRC-32 (IEEE 802.3, reflected) through a byte loop over its own
/// 256-entry table, built bit by bit here: it shares no table and no code
/// with zip::Crc32's slice-by-8, so a fault in either shows as a mismatch.
uint32_t ReferenceCrc32(std::span<const uint8_t> bytes);

}  // namespace lossyts::oracles

#endif  // LOSSYTS_TESTS_ORACLES_CRC32_H_
