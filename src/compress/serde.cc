#include "compress/serde.h"

#include "zip/crc32.h"

namespace lossyts::compress {

Status PutFrame(ByteWriter& writer, const FrameFormat& format,
                std::span<const uint8_t> payload) {
  if (payload.size() < format.min_payload ||
      payload.size() > format.max_payload) {
    return Status::InvalidArgument(
        std::string(format.name) + " payload is " +
        std::to_string(payload.size()) + " bytes; a " + format.name +
        " carries " + std::to_string(format.min_payload) + " to " +
        std::to_string(format.max_payload));
  }
  writer.PutU32(format.magic);
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  writer.PutBytes(payload);
  writer.PutU32(zip::ComputeCrc32(payload.data(), payload.size()));
  return Status::OK();
}

Result<uint32_t> ParseFrameHeader(std::span<const uint8_t> bytes,
                                  const FrameFormat& format) {
  ByteReader header(bytes.data(), bytes.size());
  Result<uint32_t> magic = header.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != format.magic) {
    return Status::Corruption(std::string(format.name) + " has a bad magic");
  }
  Result<uint32_t> size = header.GetU32();
  if (!size.ok()) return size.status();
  if (*size < format.min_payload || *size > format.max_payload) {
    return Status::Corruption(std::string(format.name) +
                              " size field is implausible");
  }
  return *size;
}

Result<FrameView> ParseFrame(std::span<const uint8_t> bytes,
                             const FrameFormat& format) {
  Result<uint32_t> size = ParseFrameHeader(bytes, format);
  if (!size.ok()) return size.status();
  const size_t frame_size = kFrameOverhead + *size;
  if (frame_size > bytes.size()) {
    return Status::Corruption(std::string(format.name) + " truncated");
  }
  const std::span<const uint8_t> payload =
      bytes.subspan(kFrameHeaderSize, *size);
  ByteReader tail(bytes.data() + kFrameHeaderSize + *size, 4);
  if (*tail.GetU32() != zip::ComputeCrc32(payload.data(), payload.size())) {
    return Status::Corruption(std::string(format.name) +
                              " checksum mismatch");
  }
  return FrameView{payload, frame_size};
}

}  // namespace lossyts::compress
