#ifndef LOSSYTS_ZIP_CRC32_H_
#define LOSSYTS_ZIP_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lossyts::zip {

/// Incremental CRC-32 (IEEE 802.3 polynomial, reflected), the checksum used
/// by the gzip container trailer. Update() runs slice-by-8 (eight bytes per
/// step through eight 256-entry tables) with a one-table byte loop for the
/// tail.
class Crc32 {
 public:
  /// Feeds `size` bytes into the checksum.
  void Update(const uint8_t* data, size_t size);
  void Update(const std::vector<uint8_t>& data) {
    Update(data.data(), data.size());
  }

  /// Final checksum value.
  uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a buffer.
uint32_t ComputeCrc32(const uint8_t* data, size_t size);

/// One-shot CRC-32 via the single-table byte loop alone. Kept as the
/// executable spec for slice-by-8.
uint32_t ComputeCrc32Reference(const uint8_t* data, size_t size);

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_CRC32_H_
