#ifndef LOSSYTS_ZIP_GZIP_H_
#define LOSSYTS_ZIP_GZIP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"

namespace lossyts::zip {

/// Compresses `input` into a gzip member (RFC 1952): 10-byte header, DEFLATE
/// body, CRC-32 + ISIZE trailer. This is the "final lossless pass" the paper
/// applies to every compressor output and to the raw datasets, and the .gz
/// byte count it produces is what compression ratios are computed from.
/// Throws std::length_error for inputs of 2^32 bytes or more.
std::vector<uint8_t> GzipCompress(std::span<const uint8_t> input);

/// Decompresses a gzip member produced by GzipCompress (or any encoder using
/// no optional header fields). Verifies the CRC-32 and ISIZE trailer.
Result<std::vector<uint8_t>> GzipDecompress(std::span<const uint8_t> input);

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_GZIP_H_
