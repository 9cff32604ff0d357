#ifndef LOSSYTS_ZIP_CRC32_H_
#define LOSSYTS_ZIP_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace lossyts::zip {

/// Incremental CRC-32 (IEEE 802.3 polynomial, reflected), the checksum used
/// by the gzip container trailer. Update() runs slice-by-8 (eight bytes per
/// step through eight 256-entry tables) with a one-table byte loop for the
/// tail.
class Crc32 {
 public:
  /// Feeds `bytes` into the checksum.
  void Update(std::span<const uint8_t> bytes);

  /// Final checksum value.
  uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a buffer.
uint32_t ComputeCrc32(std::span<const uint8_t> bytes);

/// One-shot CRC-32 via the single-table byte loop alone. Kept as the
/// executable spec for slice-by-8.
uint32_t ComputeCrc32Reference(std::span<const uint8_t> bytes);

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_CRC32_H_
