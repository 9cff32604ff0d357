#ifndef LOSSYTS_COMPRESS_SERDE_H_
#define LOSSYTS_COMPRESS_SERDE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"

namespace lossyts::compress {

/// Little-endian byte-level writer for compressed payload headers and model
/// coefficient streams.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) {
    for (int i = 0; i < 2; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
  }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
  }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(std::span<const uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  /// Overwrites the u32 already written at byte `offset`.
  void PatchU32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_[offset + i] = (v >> (8 * i)) & 0xFF;
  }

  size_t size() const { return bytes_.size(); }
  std::vector<uint8_t> Finish() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Writes a size_t count as u32, failing instead of silently truncating when
/// the count does not fit. Segment/model/symbol counts are stored as u32 on
/// the wire; a count past 2^32-1 would otherwise wrap and decode as a shorter
/// stream that still parses, corrupting the reconstruction undetectably.
inline Status PutCountU32(ByteWriter& writer, size_t count,
                          const char* what) {
  if (count > 0xFFFFFFFFull) {
    return Status::Internal(std::string(what) +
                            " count exceeds the u32 wire format: " +
                            std::to_string(count));
  }
  writer.PutU32(static_cast<uint32_t>(count));
  return Status::OK();
}

/// Little-endian byte-level reader; every accessor bounds-checks and returns
/// Corruption past the end so malformed blobs never crash decompression.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > size_) return Eof();
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() {
    if (pos_ + 2 > size_) return Eof();
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<uint16_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  Result<uint32_t> GetU32() {
    if (pos_ + 4 > size_) return Eof();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  Result<uint64_t> GetU64() {
    if (pos_ + 8 > size_) return Eof();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  Result<int32_t> GetI32() {
    Result<uint32_t> v = GetU32();
    if (!v.ok()) return v.status();
    return static_cast<int32_t>(*v);
  }
  Result<int64_t> GetI64() {
    Result<uint64_t> v = GetU64();
    if (!v.ok()) return v.status();
    return static_cast<int64_t>(*v);
  }
  Result<double> GetDouble() {
    Result<uint64_t> bits = GetU64();
    if (!bits.ok()) return bits.status();
    double v;
    uint64_t b = *bits;
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  const uint8_t* current() const { return data_ + pos_; }
  /// Advances past `n` bytes. Corruption (with the cursor clamped to the end,
  /// so remaining() never underflows) when fewer than `n` bytes remain — a
  /// corrupted length field must not teleport the cursor out of the buffer.
  Status Skip(size_t n) {
    if (n > remaining()) {
      pos_ = size_;
      return Eof();
    }
    pos_ += n;
    return Status::OK();
  }

 private:
  static Status Eof() {
    return Status::Corruption("compressed payload truncated");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// The one CRC frame of the library. Store chunk records, WAL records and
// serve protocol messages all travel in it:
//
//   Frame := u32 magic, u32 payload_size, payload, u32 crc32(payload)
//
// (little-endian, gzip-polynomial CRC32 from zip/crc32.h). A format names its
// magic and the payload sizes it accepts in a FrameFormat; PutFrame writes
// the layout and ParseFrame reads it, and nothing else does.

inline constexpr size_t kFrameHeaderSize = 8;  // magic + size.
inline constexpr size_t kFrameOverhead = 12;   // magic + size + crc.

struct FrameFormat {
  uint32_t magic = 0;
  uint32_t min_payload = 0;
  uint32_t max_payload = 0;
  const char* name = "frame";  ///< Names the frame in error messages.
};

/// Appends one frame around `payload`. InvalidArgument, with nothing
/// appended, when the payload size is outside the format's bounds: a frame
/// the reader would refuse is never written.
Status PutFrame(ByteWriter& writer, const FrameFormat& format,
                std::span<const uint8_t> payload);

/// A verified frame: a view of its payload inside the parsed buffer.
struct FrameView {
  std::span<const uint8_t> payload;
  size_t frame_size = 0;  ///< kFrameOverhead + payload.size().
};

/// Checks the magic and the size field of the frame header at the start of
/// `bytes` and returns the payload size; Corruption on a short header, a bad
/// magic or a size outside the format's bounds. Lets a stream reader refuse
/// a frame before it reads (or allocates) the payload.
Result<uint32_t> ParseFrameHeader(std::span<const uint8_t> bytes,
                                  const FrameFormat& format);

/// Parses the frame at the start of `bytes`: ParseFrameHeader, then
/// truncation and the CRC. Copies nothing; bytes past the frame are ignored.
Result<FrameView> ParseFrame(std::span<const uint8_t> bytes,
                             const FrameFormat& format);

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SERDE_H_
