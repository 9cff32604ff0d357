#ifndef LOSSYTS_TESTS_COMPRESS_DAMAGED_BLOB_H_
#define LOSSYTS_TESTS_COMPRESS_DAMAGED_BLOB_H_

// Helpers for pinning how SZ and LFZip decoders fail on damaged blobs: a
// map of where each stream sits in a blob, byte surgery on it, and a
// one-line outcome to compare against a pinned string or another decode.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/compressor.h"
#include "compress/header.h"
#include "compress/serde.h"

namespace lossyts::compress {

/// Byte offsets of the streams of an SZ or LFZip blob (mode-0 entropy
/// stage). Both codecs write: header, u32 non-zero count, one class byte per
/// point, u32 block count, the block models (SZ: u8 predictor, f32 bound,
/// 0-2 doubles; LFZip: one f32 step), the symbol stream, then u32 count and
/// the unpredictable doubles.
struct BlobLayout {
  size_t classes = 0;      ///< First class byte.
  uint32_t num_points = 0;
  size_t block_count = 0;  ///< The u32 block count.
  uint32_t blocks = 0;
  size_t last_model = 0;   ///< First byte of the last block model.
  size_t symbols = 0;      ///< The entropy stage's mode byte.
  size_t payload_size = 0;  ///< The u32 Huffman payload size.
  size_t payload = 0;      ///< First Huffman payload byte.
  size_t unpredictable_count = 0;  ///< The u32 unpredictable count.
  uint32_t unpredictable = 0;
};

inline BlobLayout MapBlob(const std::vector<uint8_t>& blob, AlgorithmId id) {
  BlobLayout layout;
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, id);
  EXPECT_TRUE(header.ok());
  layout.num_points = header->num_points;
  EXPECT_TRUE(reader.GetU32().ok());
  layout.classes = reader.position();
  EXPECT_TRUE(reader.Skip(layout.num_points).ok());
  layout.block_count = reader.position();
  layout.blocks = *reader.GetU32();
  for (uint32_t b = 0; b < layout.blocks; ++b) {
    layout.last_model = reader.position();
    if (id == AlgorithmId::kLfzip) {
      EXPECT_TRUE(reader.Skip(4).ok());
      continue;
    }
    const uint8_t predictor = *reader.GetU8();
    EXPECT_TRUE(reader.Skip(4 + 8 * static_cast<size_t>(predictor)).ok());
  }
  layout.symbols = reader.position();
  EXPECT_EQ(*reader.GetU8(), 0) << "layout needs a Huffman-mode blob";
  const uint32_t n_used = *reader.GetU32();
  EXPECT_TRUE(reader.Skip(5 * static_cast<size_t>(n_used)).ok());
  layout.payload_size = reader.position();
  const uint32_t payload = *reader.GetU32();
  layout.payload = reader.position();
  EXPECT_TRUE(reader.Skip(payload).ok());
  layout.unpredictable_count = reader.position();
  layout.unpredictable = *reader.GetU32();
  return layout;
}

inline void PutU32At(std::vector<uint8_t>& blob, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    blob[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint32_t GetU32At(const std::vector<uint8_t>& blob, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(blob[at + i]) << (8 * i);
  }
  return v;
}

/// `blob` with one named damage applied (see the list in the body).
inline std::vector<uint8_t> Damage(const std::string& name,
                                   std::vector<uint8_t> blob,
                                   const BlobLayout& l) {
  const auto first_class = [&](uint8_t value) {
    for (uint32_t i = 0; i < l.num_points; ++i) {
      if (blob[l.classes + i] == value) return l.classes + i;
    }
    ADD_FAILURE() << name << ": no class byte " << int{value};
    return l.classes;
  };
  const uint32_t payload = GetU32At(blob, l.payload_size);
  if (name == "first class byte 7") {
    blob[l.classes] = 7;
  } else if (name == "last class byte 2") {
    blob[l.classes + l.num_points - 1] = 2;
  } else if (name == "non-zero class cleared") {
    blob[first_class(1)] = 0;
  } else if (name == "zero class set") {
    blob[first_class(0)] = 1;
  } else if (name == "class stream truncated") {
    blob.resize(l.classes + l.num_points / 2);
  } else if (name == "one block model short") {
    PutU32At(blob, l.block_count, l.blocks - 1);
    blob.erase(blob.begin() + l.last_model, blob.begin() + l.symbols);
  } else if (name == "unpredictable stream exhausted") {
    PutU32At(blob, l.unpredictable_count, l.unpredictable - 1);
    blob.resize(blob.size() - 8);
  } else if (name == "symbol mode 2") {
    blob[l.symbols] = 2;
  } else if (name == "payload byte flipped") {
    blob[l.payload + payload / 2] ^= 0xA5;
  } else if (name == "payload last bit flipped") {
    blob[l.payload + payload - 1] ^= 0x80;
  } else if (name == "payload all ones") {
    std::memset(blob.data() + l.payload, 0xFF, payload);
  } else if (name == "payload one byte short") {
    PutU32At(blob, l.payload_size, payload - 1);
    blob.erase(blob.begin() + l.payload + payload - 1);
  } else if (name == "payload size past end") {
    PutU32At(blob, l.payload_size, static_cast<uint32_t>(blob.size()));
  } else if (name == "table cut to one pair") {
    PutU32At(blob, l.symbols + 1, 1);
    blob.erase(blob.begin() + l.symbols + 10, blob.begin() + l.payload_size);
  } else {
    ADD_FAILURE() << "unknown damage " << name;
  }
  return blob;
}

/// The status, or "OK <FNV-1a of the value bits>" for a decoded series.
inline std::string Outcome(const Result<TimeSeries>& out) {
  if (!out.ok()) return out.status().ToString();
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (double v : out->values()) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  char text[32];
  std::snprintf(text, sizeof(text), "OK %016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

/// Outcome of decoding `blob` with `codec`.
inline std::string DecodeOutcome(const Compressor& codec,
                                 std::span<const uint8_t> blob) {
  return Outcome(codec.Decompress(blob));
}

}  // namespace lossyts::compress

#endif  // LOSSYTS_TESTS_COMPRESS_DAMAGED_BLOB_H_
