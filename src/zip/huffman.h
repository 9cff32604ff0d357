#ifndef LOSSYTS_ZIP_HUFFMAN_H_
#define LOSSYTS_ZIP_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "zip/bitstream.h"

namespace lossyts::zip {

/// Computes length-limited Huffman code lengths from symbol frequencies.
///
/// Builds an ordinary Huffman tree and, when any code would exceed
/// `max_length`, redistributes lengths with the standard Kraft-sum repair
/// (the approach used by miniz/zlib). Symbols with zero frequency get length
/// 0. If exactly one symbol has non-zero frequency it is assigned length 1,
/// as DEFLATE requires at least one bit per coded symbol.
///
/// Returns one length per symbol, or an error if max_length cannot
/// accommodate the alphabet (needs 2^max_length >= #used symbols).
Result<std::vector<int>> BuildCodeLengths(const std::vector<uint64_t>& freqs,
                                          int max_length);

/// Assigns canonical code values to the given code lengths per RFC 1951
/// §3.2.2: shorter codes first, ties broken by symbol order.
std::vector<uint32_t> CanonicalCodes(const std::vector<int>& lengths);

/// One symbol's code length, the form SZ and LFZip transmit their tables in.
struct SymbolLength {
  uint32_t symbol = 0;
  int length = 0;
};

/// Canonical Huffman decoder driven by code lengths alone (the form DEFLATE
/// transmits). DecodeMany() is table-driven: a flat root table indexed by
/// the next kRootBits stream bits resolves every code up to that length in
/// one lookup, and longer codes indirect through a per-prefix subtable — the
/// classic zlib/miniz layout. Decode() is DecodeMany() for one symbol.
/// DecodeReference() keeps the original first-code/offset bit walk as the
/// executable spec; all three return identical symbols and identical error
/// statuses on every stream, and leave the reader in the same state.
class HuffmanDecoder {
 public:
  /// Initializes from per-symbol code lengths: lengths[s] is symbol s's
  /// length, 0 for an unused symbol. Fails if the lengths are not a valid
  /// (complete or single-symbol) prefix code.
  Status Init(const std::vector<int>& lengths);

  /// Initializes from (symbol, length) pairs over an alphabet of
  /// `alphabet_size` symbols, in time that depends on the pairs, not on the
  /// alphabet. The pairs resolve exactly as writing them in order into a
  /// dense per-symbol array would: any order is accepted, a repeated symbol
  /// takes its last length, and a zero length leaves the symbol unused. A
  /// length outside 0..15 or a symbol past the alphabet is Corruption; the
  /// code checks are the dense Init's. The dense Init is a wrapper over this.
  Status Init(std::vector<SymbolLength> pairs, size_t alphabet_size);

  /// Decodes `count` symbols into `out` in one loop over the lookup table.
  /// At the first symbol that fails it returns the status Decode() would
  /// have returned there, with the reader in the state Decode() would have
  /// left; out[0..k) then hold the k symbols decoded before it.
  Status DecodeMany(BitReader& reader, int* out, size_t count) const;

  /// Decodes one symbol from the reader via the lookup table.
  Result<int> Decode(BitReader& reader) const;

  /// Decodes one symbol with the original length-by-length bit walk.
  Result<int> DecodeReference(BitReader& reader) const;

 private:
  static constexpr int kMaxLength = 15;
  static constexpr int kRootBits = 9;
  // Table entry layout (uint32_t):
  //   bits 0..16  symbol value, or subtable base index for a root entry
  //               with kSubFlag set. 17 bits: SZ's quantization alphabet
  //               reaches symbol 2 * quant_radius = 65536, one past uint16.
  //   bits 17..21 total code length in bits for a direct entry (1..15), or
  //               the subtable's index width for a kSubFlag root entry.
  //               0 means "no code has this prefix" (invalid).
  //   bit 22      kSubFlag: root entry pointing at a subtable.
  static constexpr uint32_t kSymMask = (1u << 17) - 1;
  static constexpr int kLenShift = 17;
  static constexpr uint32_t kSubFlag = 1u << 22;

  void BuildLut();

  // first_code_[l]: canonical code value of the first code of length l.
  // offset_[l]: index into sorted_symbols_ of the first symbol of length l.
  uint32_t first_code_[kMaxLength + 2] = {};
  int offset_[kMaxLength + 2] = {};
  int count_[kMaxLength + 2] = {};
  std::vector<int> sorted_symbols_;
  int max_used_length_ = 0;
  int table_bits_ = 0;  // min(max_used_length_, kRootBits).
  std::vector<uint32_t> table_;
};

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_HUFFMAN_H_
