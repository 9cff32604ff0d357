#include "zip/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "zip/bitstream.h"
#include "zip/huffman.h"
#include "zip/lz77.h"

namespace lossyts::zip {

namespace {

// RFC 1951 §3.2.5: length code table (codes 257..285).
constexpr int kNumLengthCodes = 29;
constexpr std::array<uint16_t, kNumLengthCodes> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<uint8_t, kNumLengthCodes> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance code table (codes 0..29).
constexpr int kNumDistCodes = 30;
constexpr std::array<uint16_t, kNumDistCodes> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<uint8_t, kNumDistCodes> kDistExtra = {
    0, 0, 0,  0,  1,  1,  2,  2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7,  8,  8,  9,  9,  10, 10, 11, 11, 12, 12, 13, 13};

// Order in which code-length-code lengths are transmitted (§3.2.7).
constexpr std::array<uint8_t, 19> kClcOrder = {16, 17, 18, 0, 8,  7, 9,
                                               6,  10, 5,  11, 4, 12, 3,
                                               13, 2,  14, 1,  15};

constexpr int kEndOfBlock = 256;
constexpr int kNumLitLenSymbols = 288;

// Token-to-code maps, precomputed from the base tables so the per-token cost
// is one (or two) array loads instead of a backwards scan.
struct LengthCodeLut {
  uint8_t code[256];  // Indexed by length - 3 (lengths 3..258).
  constexpr LengthCodeLut() : code{} {
    for (int c = 0; c < kNumLengthCodes; ++c) {
      const int next =
          (c + 1 < kNumLengthCodes) ? kLengthBase[c + 1] : kLengthBase[c] + 1;
      for (int length = kLengthBase[c]; length < next; ++length) {
        code[length - 3] = static_cast<uint8_t>(c);
      }
    }
  }
};

struct DistanceCodeLut {
  uint8_t small[256];  // Indexed by distance - 1 for distances 1..256.
  uint8_t big[256];    // Indexed by (distance - 1) >> 7 for 257..32768.
  constexpr DistanceCodeLut() : small{}, big{} {
    for (int c = 0; c < kNumDistCodes; ++c) {
      const int next =
          (c + 1 < kNumDistCodes) ? kDistBase[c + 1] : 32768 + 1;
      // Every base above 256 sits on a 128-distance bucket boundary, so each
      // bucket of (d - 1) >> 7 holds exactly one code.
      for (int d = kDistBase[c]; d < next; ++d) {
        if (d <= 256) {
          small[d - 1] = static_cast<uint8_t>(c);
        } else if (((d - 1) & 127) == 0) {
          big[(d - 1) >> 7] = static_cast<uint8_t>(c);
        }
      }
    }
  }
};

constexpr LengthCodeLut kLengthCodeLut;
constexpr DistanceCodeLut kDistanceCodeLut;

inline int LengthToCode(int length) { return kLengthCodeLut.code[length - 3]; }

inline int DistanceToCode(int distance) {
  return distance <= 256 ? kDistanceCodeLut.small[distance - 1]
                         : kDistanceCodeLut.big[(distance - 1) >> 7];
}

// Run-length encodes the concatenated literal/length + distance code lengths
// into the code-length alphabet (symbols 0..18 with repeat codes 16/17/18).
struct ClcSymbol {
  int symbol;
  int extra_value;
  int extra_bits;
};

std::vector<ClcSymbol> RunLengthEncodeLengths(const std::vector<int>& lengths) {
  std::vector<ClcSymbol> out;
  size_t i = 0;
  while (i < lengths.size()) {
    const int len = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == len) ++run;
    if (len == 0) {
      size_t remaining = run;
      while (remaining >= 11) {
        const int rep = static_cast<int>(std::min<size_t>(remaining, 138));
        out.push_back({18, rep - 11, 7});
        remaining -= static_cast<size_t>(rep);
      }
      if (remaining >= 3) {
        out.push_back({17, static_cast<int>(remaining) - 3, 3});
        remaining = 0;
      }
      while (remaining-- > 0) out.push_back({0, 0, 0});
    } else {
      out.push_back({len, 0, 0});
      size_t remaining = run - 1;
      while (remaining >= 3) {
        const int rep = static_cast<int>(std::min<size_t>(remaining, 6));
        out.push_back({16, rep - 3, 2});
        remaining -= static_cast<size_t>(rep);
      }
      while (remaining-- > 0) out.push_back({len, 0, 0});
    }
    i += run;
  }
  return out;
}

void WriteStoredBlock(std::span<const uint8_t> input, BitWriter& writer) {
  writer.WriteBits(1, 1);  // BFINAL
  writer.WriteBits(0, 2);  // BTYPE = stored
  writer.AlignToByte();
  const uint16_t len = static_cast<uint16_t>(input.size());
  writer.WriteByte(static_cast<uint8_t>(len & 0xFF));
  writer.WriteByte(static_cast<uint8_t>(len >> 8));
  writer.WriteByte(static_cast<uint8_t>(~len & 0xFF));
  writer.WriteByte(static_cast<uint8_t>((~len >> 8) & 0xFF));
  for (uint8_t b : input) writer.WriteByte(b);
}

// Builds the fixed literal/length code lengths of §3.2.6.
std::vector<int> FixedLitLenLengths() {
  std::vector<int> lengths(kNumLitLenSymbols);
  for (int s = 0; s <= 143; ++s) lengths[s] = 8;
  for (int s = 144; s <= 255; ++s) lengths[s] = 9;
  for (int s = 256; s <= 279; ++s) lengths[s] = 7;
  for (int s = 280; s <= 287; ++s) lengths[s] = 8;
  return lengths;
}

}  // namespace

std::vector<uint8_t> DeflateCompress(std::span<const uint8_t> input) {
  BitWriter writer;
  if (input.size() < 8) {
    // Tiny inputs: a stored block is smaller than any Huffman header.
    WriteStoredBlock(input, writer);
    return writer.Finish();
  }

  const std::vector<Lz77Token> tokens = Lz77Tokenize(input);

  // Count symbol frequencies.
  std::vector<uint64_t> lit_freq(kNumLitLenSymbols, 0);
  std::vector<uint64_t> dist_freq(kNumDistCodes, 0);
  for (const Lz77Token& t : tokens) {
    if (t.is_match) {
      lit_freq[257 + LengthToCode(t.length)]++;
      dist_freq[DistanceToCode(t.distance)]++;
    } else {
      lit_freq[t.literal]++;
    }
  }
  lit_freq[kEndOfBlock]++;

  Result<std::vector<int>> lit_lengths = BuildCodeLengths(lit_freq, 15);
  Result<std::vector<int>> dist_lengths = BuildCodeLengths(dist_freq, 15);
  // The alphabets always fit in 15 bits, so failure here is impossible;
  // fall back to a stored block defensively anyway.
  if (!lit_lengths.ok() || !dist_lengths.ok()) {
    WriteStoredBlock(input, writer);
    return writer.Finish();
  }

  // DEFLATE requires HDIST >= 1; give symbol 0 a 1-bit code if no distances.
  bool any_dist = false;
  for (uint64_t f : dist_freq) any_dist |= (f > 0);
  if (!any_dist) (*dist_lengths)[0] = 1;

  const std::vector<uint32_t> lit_codes = CanonicalCodes(*lit_lengths);
  const std::vector<uint32_t> dist_codes = CanonicalCodes(*dist_lengths);

  // Trim trailing zero lengths (but keep the spec minimums).
  int hlit = kNumLitLenSymbols;
  while (hlit > 257 && (*lit_lengths)[hlit - 1] == 0) --hlit;
  int hdist = kNumDistCodes;
  while (hdist > 1 && (*dist_lengths)[hdist - 1] == 0) --hdist;

  std::vector<int> all_lengths;
  all_lengths.reserve(hlit + hdist);
  all_lengths.insert(all_lengths.end(), lit_lengths->begin(),
                     lit_lengths->begin() + hlit);
  all_lengths.insert(all_lengths.end(), dist_lengths->begin(),
                     dist_lengths->begin() + hdist);

  const std::vector<ClcSymbol> clc_stream =
      RunLengthEncodeLengths(all_lengths);
  std::vector<uint64_t> clc_freq(19, 0);
  for (const ClcSymbol& c : clc_stream) clc_freq[c.symbol]++;
  Result<std::vector<int>> clc_lengths = BuildCodeLengths(clc_freq, 7);
  if (!clc_lengths.ok()) {
    WriteStoredBlock(input, writer);
    return writer.Finish();
  }
  const std::vector<uint32_t> clc_codes = CanonicalCodes(*clc_lengths);

  int hclen = 19;
  while (hclen > 4 && (*clc_lengths)[kClcOrder[hclen - 1]] == 0) --hclen;

  // Block header.
  writer.WriteBits(1, 1);  // BFINAL
  writer.WriteBits(2, 2);  // BTYPE = dynamic
  writer.WriteBits(static_cast<uint32_t>(hlit - 257), 5);
  writer.WriteBits(static_cast<uint32_t>(hdist - 1), 5);
  writer.WriteBits(static_cast<uint32_t>(hclen - 4), 4);
  for (int i = 0; i < hclen; ++i) {
    writer.WriteBits(static_cast<uint32_t>((*clc_lengths)[kClcOrder[i]]), 3);
  }
  for (const ClcSymbol& c : clc_stream) {
    writer.WriteHuffmanCode(clc_codes[c.symbol], (*clc_lengths)[c.symbol]);
    if (c.extra_bits > 0) {
      writer.WriteBits(static_cast<uint32_t>(c.extra_value), c.extra_bits);
    }
  }

  // Token stream.
  for (const Lz77Token& t : tokens) {
    if (t.is_match) {
      const int lcode = LengthToCode(t.length);
      const int lsym = 257 + lcode;
      writer.WriteHuffmanCode(lit_codes[lsym], (*lit_lengths)[lsym]);
      if (kLengthExtra[lcode] > 0) {
        writer.WriteBits(
            static_cast<uint32_t>(t.length - kLengthBase[lcode]),
            kLengthExtra[lcode]);
      }
      const int dcode = DistanceToCode(t.distance);
      writer.WriteHuffmanCode(dist_codes[dcode], (*dist_lengths)[dcode]);
      if (kDistExtra[dcode] > 0) {
        writer.WriteBits(
            static_cast<uint32_t>(t.distance - kDistBase[dcode]),
            kDistExtra[dcode]);
      }
    } else {
      writer.WriteHuffmanCode(lit_codes[t.literal],
                              (*lit_lengths)[t.literal]);
    }
  }
  writer.WriteHuffmanCode(lit_codes[kEndOfBlock],
                          (*lit_lengths)[kEndOfBlock]);
  return writer.Finish();
}

namespace {

Status InflateBlockBody(const HuffmanDecoder& lit_decoder,
                        const HuffmanDecoder& dist_decoder, BitReader& reader,
                        std::vector<uint8_t>& out) {
  while (true) {
    Result<int> sym = lit_decoder.Decode(reader);
    if (!sym.ok()) return sym.status();
    if (*sym == kEndOfBlock) return Status::OK();
    if (*sym < 256) {
      out.push_back(static_cast<uint8_t>(*sym));
      continue;
    }
    const int lcode = *sym - 257;
    if (lcode >= kNumLengthCodes) {
      return Status::Corruption("invalid length code");
    }
    Result<uint32_t> lextra = reader.ReadBits(kLengthExtra[lcode]);
    if (!lextra.ok()) return lextra.status();
    const int length = kLengthBase[lcode] + static_cast<int>(*lextra);

    Result<int> dsym = dist_decoder.Decode(reader);
    if (!dsym.ok()) return dsym.status();
    if (*dsym >= kNumDistCodes) {
      return Status::Corruption("invalid distance code");
    }
    Result<uint32_t> dextra = reader.ReadBits(kDistExtra[*dsym]);
    if (!dextra.ok()) return dextra.status();
    const size_t distance = kDistBase[*dsym] + static_cast<size_t>(*dextra);
    if (distance > out.size()) {
      return Status::Corruption("back-reference beyond output start");
    }
    const size_t start = out.size() - distance;
    out.resize(out.size() + static_cast<size_t>(length));
    uint8_t* dst = out.data() + out.size() - static_cast<size_t>(length);
    const uint8_t* src = out.data() + start;
    if (distance >= static_cast<size_t>(length)) {
      // Non-overlapping: one bulk copy.
      std::memcpy(dst, src, static_cast<size_t>(length));
    } else {
      // Overlapping run (e.g. distance 1 repeats a byte); the byte-at-a-time
      // order is the semantics, not an optimization target.
      for (int k = 0; k < length; ++k) dst[k] = src[k];
    }
  }
}

}  // namespace

Result<std::vector<uint8_t>> DeflateDecompress(std::span<const uint8_t> input) {
  BitReader reader(input);
  std::vector<uint8_t> out;
  while (true) {
    Result<uint32_t> bfinal = reader.ReadBit();
    if (!bfinal.ok()) return bfinal.status();
    Result<uint32_t> btype = reader.ReadBits(2);
    if (!btype.ok()) return btype.status();

    if (*btype == 0) {  // Stored.
      reader.AlignToByte();
      uint32_t len = 0;
      uint32_t nlen = 0;
      for (int i = 0; i < 2; ++i) {
        Result<uint8_t> b = reader.ReadByte();
        if (!b.ok()) return b.status();
        len |= static_cast<uint32_t>(*b) << (8 * i);
      }
      for (int i = 0; i < 2; ++i) {
        Result<uint8_t> b = reader.ReadByte();
        if (!b.ok()) return b.status();
        nlen |= static_cast<uint32_t>(*b) << (8 * i);
      }
      if ((len ^ 0xFFFFu) != nlen) {
        return Status::Corruption("stored block LEN/NLEN mismatch");
      }
      for (uint32_t i = 0; i < len; ++i) {
        Result<uint8_t> b = reader.ReadByte();
        if (!b.ok()) return b.status();
        out.push_back(*b);
      }
    } else if (*btype == 1) {  // Fixed Huffman.
      HuffmanDecoder lit_decoder;
      if (Status s = lit_decoder.Init(FixedLitLenLengths()); !s.ok()) return s;
      HuffmanDecoder dist_decoder;
      // RFC 1951 §3.2.6: 32 five-bit distance codes (30-31 never occur in
      // data but participate in the code space).
      if (Status s = dist_decoder.Init(std::vector<int>(32, 5)); !s.ok()) {
        return s;
      }
      if (Status s = InflateBlockBody(lit_decoder, dist_decoder, reader, out);
          !s.ok()) {
        return s;
      }
    } else if (*btype == 2) {  // Dynamic Huffman.
      Result<uint32_t> hlit = reader.ReadBits(5);
      if (!hlit.ok()) return hlit.status();
      Result<uint32_t> hdist = reader.ReadBits(5);
      if (!hdist.ok()) return hdist.status();
      Result<uint32_t> hclen = reader.ReadBits(4);
      if (!hclen.ok()) return hclen.status();
      const int n_lit = static_cast<int>(*hlit) + 257;
      const int n_dist = static_cast<int>(*hdist) + 1;
      const int n_clc = static_cast<int>(*hclen) + 4;
      if (n_lit > kNumLitLenSymbols) {
        return Status::Corruption("HLIT out of range");
      }

      std::vector<int> clc_lengths(19, 0);
      for (int i = 0; i < n_clc; ++i) {
        Result<uint32_t> l = reader.ReadBits(3);
        if (!l.ok()) return l.status();
        clc_lengths[kClcOrder[i]] = static_cast<int>(*l);
      }
      HuffmanDecoder clc_decoder;
      if (Status s = clc_decoder.Init(clc_lengths); !s.ok()) return s;

      std::vector<int> all_lengths;
      all_lengths.reserve(n_lit + n_dist);
      while (static_cast<int>(all_lengths.size()) < n_lit + n_dist) {
        Result<int> sym = clc_decoder.Decode(reader);
        if (!sym.ok()) return sym.status();
        if (*sym < 16) {
          all_lengths.push_back(*sym);
        } else if (*sym == 16) {
          if (all_lengths.empty()) {
            return Status::Corruption("repeat code with no previous length");
          }
          Result<uint32_t> rep = reader.ReadBits(2);
          if (!rep.ok()) return rep.status();
          const int prev = all_lengths.back();
          for (uint32_t k = 0; k < *rep + 3; ++k) all_lengths.push_back(prev);
        } else if (*sym == 17) {
          Result<uint32_t> rep = reader.ReadBits(3);
          if (!rep.ok()) return rep.status();
          for (uint32_t k = 0; k < *rep + 3; ++k) all_lengths.push_back(0);
        } else {
          Result<uint32_t> rep = reader.ReadBits(7);
          if (!rep.ok()) return rep.status();
          for (uint32_t k = 0; k < *rep + 11; ++k) all_lengths.push_back(0);
        }
      }
      if (static_cast<int>(all_lengths.size()) != n_lit + n_dist) {
        return Status::Corruption("code length stream overran header counts");
      }

      std::vector<int> lit_lengths(all_lengths.begin(),
                                   all_lengths.begin() + n_lit);
      std::vector<int> dist_lengths(all_lengths.begin() + n_lit,
                                    all_lengths.end());
      HuffmanDecoder lit_decoder;
      if (Status s = lit_decoder.Init(lit_lengths); !s.ok()) return s;
      HuffmanDecoder dist_decoder;
      if (Status s = dist_decoder.Init(dist_lengths); !s.ok()) return s;
      if (Status s = InflateBlockBody(lit_decoder, dist_decoder, reader, out);
          !s.ok()) {
        return s;
      }
    } else {
      return Status::Corruption("reserved block type 3");
    }

    if (*bfinal == 1) break;
  }
  return out;
}

}  // namespace lossyts::zip
