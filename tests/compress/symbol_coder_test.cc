// The SZ/LFZip symbol coder against the dense-alphabet construction it
// replaces: identical bytes for every stream shape, and a round trip.

#include "compress/symbol_coder.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "zip/bitstream.h"
#include "zip/huffman.h"

namespace lossyts::compress {
namespace {

constexpr uint32_t kAlphabet = 2 * 32768 + 1;  // SZ's and LFZip's default.

// The entropy stage built over the whole alphabet: one frequency, length
// and code slot per symbol, used or not.
std::vector<uint8_t> DenseReference(const std::vector<int>& symbols) {
  ByteWriter writer;
  std::vector<uint64_t> freqs(kAlphabet, 0);
  for (int s : symbols) freqs[static_cast<size_t>(s)]++;
  Result<std::vector<int>> lengths = zip::BuildCodeLengths(freqs, 15);
  if (!lengths.ok()) {
    writer.PutU8(1);
    for (int s : symbols) writer.PutU32(static_cast<uint32_t>(s));
    return writer.Finish();
  }
  writer.PutU8(0);
  uint32_t n_used = 0;
  for (int l : *lengths) n_used += l > 0 ? 1 : 0;
  writer.PutU32(n_used);
  for (size_t s = 0; s < lengths->size(); ++s) {
    if ((*lengths)[s] > 0) {
      writer.PutU32(static_cast<uint32_t>(s));
      writer.PutU8(static_cast<uint8_t>((*lengths)[s]));
    }
  }
  const std::vector<uint32_t> codes = zip::CanonicalCodes(*lengths);
  zip::BitWriter bits;
  for (int s : symbols) {
    bits.WriteHuffmanCode(codes[static_cast<size_t>(s)],
                          (*lengths)[static_cast<size_t>(s)]);
  }
  const std::vector<uint8_t> payload = bits.Finish();
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  writer.PutBytes(payload);
  return writer.Finish();
}

void ExpectDenseBytesAndRoundTrip(const std::vector<int>& symbols,
                                  const std::string& label) {
  ByteWriter writer;
  ASSERT_TRUE(WriteSymbols(symbols, "SZ", writer).ok()) << label;
  const std::vector<uint8_t> bytes = writer.Finish();
  EXPECT_EQ(bytes, DenseReference(symbols)) << label;
  ByteReader reader(bytes);
  Result<std::vector<int>> back =
      ReadSymbols(reader, static_cast<uint32_t>(symbols.size()), kAlphabet,
                  "SZ");
  ASSERT_TRUE(back.ok()) << label << ": " << back.status().ToString();
  EXPECT_EQ(*back, symbols) << label;
  EXPECT_EQ(reader.remaining(), 0u) << label;
}

// Quantization codes: a peak at the middle symbol, geometric tails.
int ClusteredSymbol(Rng& rng, int spread) {
  const int mag = static_cast<int>(rng.UniformInt(1 + rng.UniformInt(spread)));
  return 32768 + (rng.UniformInt(2) == 0 ? mag : -mag);
}

TEST(SymbolCoderTest, BytesEqualTheDenseAlphabetBuild) {
  Rng rng(8);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.UniformInt(trial % 3 == 0 ? 20000 : 1500);
    const int spread = 1 + static_cast<int>(rng.UniformInt(3000));
    std::vector<int> symbols;
    for (size_t i = 0; i < n; ++i) {
      // Some streams carry the escape symbol (the alphabet's last), which
      // stretches the occupied span far past the clustered codes.
      const bool escape = trial % 2 == 1 && rng.UniformInt(50) == 0;
      symbols.push_back(escape ? static_cast<int>(kAlphabet) - 1
                               : ClusteredSymbol(rng, spread));
    }
    ExpectDenseBytesAndRoundTrip(symbols, "trial " + std::to_string(trial));
  }
}

TEST(SymbolCoderTest, EdgeStreamsEqualTheDenseAlphabetBuild) {
  ExpectDenseBytesAndRoundTrip({}, "empty");
  ExpectDenseBytesAndRoundTrip({32768}, "one symbol");
  ExpectDenseBytesAndRoundTrip(std::vector<int>(500, 65536), "one escape");
  ExpectDenseBytesAndRoundTrip({0, 65536}, "alphabet ends");
  ExpectDenseBytesAndRoundTrip({0, 65536, 0, 7, 65536}, "wide and sparse");

  // Fibonacci counts force codes past 15 bits, so the length-limit repair
  // reorders symbols by count; ties break by symbol in both builds.
  std::vector<int> skewed;
  uint64_t a = 1;
  uint64_t b = 1;
  for (int k = 0; k < 24; ++k) {
    for (uint64_t i = 0; i < a; ++i) skewed.push_back(32768 + 3 * k - 30);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  ExpectDenseBytesAndRoundTrip(skewed, "length-limited");

  // More distinct symbols than 15-bit codes can hold: raw mode.
  std::vector<int> raw;
  for (int s = 0; s < 40000; ++s) raw.push_back(s);
  ExpectDenseBytesAndRoundTrip(raw, "raw mode");
}

TEST(SymbolCoderTest, ReadRejectsOutOfRangeAndBadModes) {
  ByteWriter raw;
  raw.PutU8(1);
  raw.PutU32(kAlphabet);
  const std::vector<uint8_t> raw_bytes = raw.Finish();
  ByteReader raw_reader(raw_bytes);
  EXPECT_EQ(ReadSymbols(raw_reader, 1, kAlphabet, "LFZip").status().ToString(),
            "Corruption: LFZip raw symbol out of range");

  const std::vector<uint8_t> bad_mode = {2};
  ByteReader mode_reader(bad_mode);
  EXPECT_EQ(ReadSymbols(mode_reader, 1, kAlphabet, "SZ").status().ToString(),
            "Corruption: invalid SZ symbol coding mode");
}

}  // namespace
}  // namespace lossyts::compress
