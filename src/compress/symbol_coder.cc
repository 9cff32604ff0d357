#include "compress/symbol_coder.h"

#include <algorithm>
#include <string>

#include "zip/bitstream.h"
#include "zip/huffman.h"

namespace lossyts::compress {

namespace {

// The compacted alphabet: the used symbols in ascending order, their counts,
// and each stream symbol's index into them.
struct CompactAlphabet {
  std::vector<int> symbols;
  std::vector<uint64_t> freqs;
  std::vector<uint32_t> index;  ///< Per stream position.
};

// Counts over the span the symbols occupy, then numbers the used ones in
// ascending order. The span is at most the alphabet, and for quantization
// codes usually far less: only an escape symbol stretches it that far.
CompactAlphabet Compact(const std::vector<int>& symbols) {
  CompactAlphabet out;
  if (symbols.empty()) return out;
  const auto [lo_it, hi_it] = std::minmax_element(symbols.begin(),
                                                  symbols.end());
  const int lo = *lo_it;
  std::vector<uint32_t> slot(static_cast<size_t>(*hi_it - lo) + 1, 0);
  for (int s : symbols) ++slot[static_cast<size_t>(s - lo)];
  for (size_t d = 0; d < slot.size(); ++d) {
    if (slot[d] == 0) continue;
    out.symbols.push_back(lo + static_cast<int>(d));
    out.freqs.push_back(slot[d]);
    slot[d] = static_cast<uint32_t>(out.symbols.size() - 1);
  }
  out.index.reserve(symbols.size());
  for (int s : symbols) out.index.push_back(slot[static_cast<size_t>(s - lo)]);
  return out;
}

}  // namespace

Status WriteSymbols(const std::vector<int>& symbols, const char* codec,
                    ByteWriter& writer) {
  const CompactAlphabet alphabet = Compact(symbols);
  Result<std::vector<int>> lengths = zip::BuildCodeLengths(alphabet.freqs, 15);
  if (!lengths.ok()) {
    // Degenerate distribution; store the raw codes (gzip still shrinks them).
    writer.PutU8(1);
    for (int s : symbols) writer.PutU32(static_cast<uint32_t>(s));
    return Status::OK();
  }
  writer.PutU8(0);  // Huffman mode.
  writer.PutU32(static_cast<uint32_t>(alphabet.symbols.size()));
  for (size_t k = 0; k < alphabet.symbols.size(); ++k) {
    writer.PutU32(static_cast<uint32_t>(alphabet.symbols[k]));
    writer.PutU8(static_cast<uint8_t>((*lengths)[k]));
  }
  const std::vector<uint32_t> codes = zip::CanonicalCodes(*lengths);
  zip::BitWriter bits;
  for (uint32_t k : alphabet.index) {
    bits.WriteHuffmanCode(codes[k], (*lengths)[k]);
  }
  std::vector<uint8_t> payload = bits.Finish();
  if (Status s = PutCountU32(writer, payload.size(),
                             (std::string(codec) + " Huffman payload").c_str());
      !s.ok()) {
    return s;
  }
  writer.PutBytes(payload);
  return Status::OK();
}

Result<std::vector<int>> ReadSymbols(ByteReader& reader, uint32_t count,
                                     uint32_t alphabet_size,
                                     const char* codec) {
  Result<uint8_t> mode = reader.GetU8();
  if (!mode.ok()) return mode.status();
  std::vector<int> symbols;
  symbols.reserve(count);
  if (*mode == 1) {
    for (uint32_t i = 0; i < count; ++i) {
      Result<uint32_t> sym = reader.GetU32();
      if (!sym.ok()) return sym.status();
      // Compare as unsigned: casting first would wrap codes >= 2^31 to
      // negative ints that slip past the check and decode as garbage.
      if (*sym >= alphabet_size) {
        return Status::Corruption(std::string(codec) +
                                  " raw symbol out of range");
      }
      symbols.push_back(static_cast<int>(*sym));
    }
    return symbols;
  }
  if (*mode != 0) {
    return Status::Corruption("invalid " + std::string(codec) +
                              " symbol coding mode");
  }

  Result<uint32_t> n_used = reader.GetU32();
  if (!n_used.ok()) return n_used.status();
  std::vector<zip::SymbolLength> pairs;
  // A damaged n_used must fail on the truncated read, not on the reserve.
  pairs.reserve(std::min<size_t>(*n_used, reader.remaining() / 5));
  for (uint32_t k = 0; k < *n_used; ++k) {
    Result<uint32_t> sym = reader.GetU32();
    if (!sym.ok()) return sym.status();
    Result<uint8_t> len = reader.GetU8();
    if (!len.ok()) return len.status();
    if (*sym >= alphabet_size) {
      return Status::Corruption(std::string(codec) +
                                " Huffman symbol out of range");
    }
    pairs.push_back({*sym, *len});
  }
  // A series of exact zeros has no symbols, and its table is empty.
  const bool needs_table = count > 0 || *n_used > 0;
  zip::HuffmanDecoder decoder;
  if (needs_table) {
    if (Status s = decoder.Init(std::move(pairs), alphabet_size); !s.ok()) {
      return s;
    }
  }
  Result<uint32_t> payload_size = reader.GetU32();
  if (!payload_size.ok()) return payload_size.status();
  if (*payload_size > reader.remaining()) {
    return Status::Corruption(std::string(codec) +
                              " Huffman payload truncated");
  }
  zip::BitReader bits(reader.current(), *payload_size);
  if (Status s = reader.Skip(*payload_size); !s.ok()) return s;
  for (uint32_t i = 0; i < count; ++i) {
    Result<int> sym = decoder.Decode(bits);
    if (!sym.ok()) return sym.status();
    symbols.push_back(*sym);
  }
  return symbols;
}

}  // namespace lossyts::compress
