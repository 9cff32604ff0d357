#include "zip/gzip.h"

#include "zip/crc32.h"
#include "zip/deflate.h"

namespace lossyts::zip {

namespace {

constexpr uint8_t kMagic1 = 0x1F;
constexpr uint8_t kMagic2 = 0x8B;
constexpr uint8_t kMethodDeflate = 8;
constexpr size_t kHeaderSize = 10;
constexpr size_t kTrailerSize = 8;

void AppendLe32(std::vector<uint8_t>& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((value >> (8 * i)) & 0xFF));
  }
}

uint32_t ReadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

std::vector<uint8_t> GzipCompress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + kHeaderSize + kTrailerSize);
  out.push_back(kMagic1);
  out.push_back(kMagic2);
  out.push_back(kMethodDeflate);
  out.push_back(0);  // FLG: no extra fields.
  AppendLe32(out, 0);  // MTIME: unset.
  out.push_back(0);    // XFL.
  out.push_back(255);  // OS: unknown.

  const std::vector<uint8_t> body = DeflateCompress(input);
  out.insert(out.end(), body.begin(), body.end());

  AppendLe32(out, ComputeCrc32(input));
  AppendLe32(out, static_cast<uint32_t>(input.size()));
  return out;
}

Result<std::vector<uint8_t>> GzipDecompress(std::span<const uint8_t> input) {
  if (input.size() < kHeaderSize + kTrailerSize) {
    return Status::Corruption("gzip stream too short");
  }
  if (input[0] != kMagic1 || input[1] != kMagic2) {
    return Status::Corruption("bad gzip magic");
  }
  if (input[2] != kMethodDeflate) {
    return Status::Corruption("unsupported gzip compression method");
  }
  // Skip the optional header fields other encoders may emit (RFC 1952):
  // FEXTRA, FNAME, FCOMMENT, FHCRC. The reserved bits must be zero.
  const uint8_t flags = input[3];
  if (flags & 0xE0) return Status::Corruption("gzip reserved flag bits set");
  size_t pos = kHeaderSize;
  auto out_of_bounds = [&] { return pos + kTrailerSize > input.size(); };
  if (flags & 0x04) {  // FEXTRA: u16 length + payload.
    if (pos + 2 + kTrailerSize > input.size()) {
      return Status::Corruption("gzip FEXTRA field truncated");
    }
    const size_t xlen = static_cast<size_t>(input[pos]) |
                        (static_cast<size_t>(input[pos + 1]) << 8);
    pos += 2 + xlen;
  }
  for (const uint8_t field : {uint8_t{0x08}, uint8_t{0x10}}) {  // FNAME, FCOMMENT.
    if (flags & field) {
      while (!out_of_bounds() && input[pos] != 0) ++pos;
      if (out_of_bounds()) {
        return Status::Corruption("gzip string field unterminated");
      }
      ++pos;  // The terminating NUL.
    }
  }
  if (flags & 0x02) pos += 2;  // FHCRC.
  if (out_of_bounds()) {
    return Status::Corruption("gzip header overruns the stream");
  }
  Result<std::vector<uint8_t>> data = DeflateDecompress(
      input.subspan(pos, input.size() - kTrailerSize - pos));
  if (!data.ok()) return data.status();

  const uint8_t* trailer = input.data() + input.size() - kTrailerSize;
  const uint32_t expected_crc = ReadLe32(trailer);
  const uint32_t expected_size = ReadLe32(trailer + 4);
  if (static_cast<uint32_t>(data->size()) != expected_size) {
    return Status::Corruption("gzip ISIZE mismatch");
  }
  if (ComputeCrc32(*data) != expected_crc) {
    return Status::Corruption("gzip CRC-32 mismatch");
  }
  return data;
}

}  // namespace lossyts::zip
