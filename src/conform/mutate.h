#ifndef LOSSYTS_CONFORM_MUTATE_H_
#define LOSSYTS_CONFORM_MUTATE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "conform/oracles.h"

namespace lossyts::conform {

/// One mutated blob plus a stable description of how it was derived, so a
/// decoder crash or mis-accept can be reproduced from the printed report.
struct Mutant {
  std::string kind;
  std::vector<uint8_t> blob;
};

/// Derives the mutation battery for one valid blob, structure-aware against
/// the shared header layout (byte 0 algorithm id, i32 timestamp at 1, u16
/// interval at 5, u32 point count at 7, first payload count at 11):
///  - truncations at structural boundaries and mid-payload,
///  - single-bit flips across every header byte,
///  - u32 splices of the point count and first payload count with boundary
///    values (0, 1, old±1, old*2, 0x7FFFFFFF, 0xFFFFFFFF),
///  - u16 splice of the first segment-length field,
///  - `random_bit_flips` seeded random bit flips and byte splices anywhere.
/// Deterministic in (blob, seed, random_bit_flips).
std::vector<Mutant> GenerateMutants(std::span<const uint8_t> blob,
                                    uint64_t seed, int random_bit_flips);

/// Feeds one mutant to `codec.Decompress`. The decoder contract: it may
/// return any non-OK Status (pass), but it must never crash, over-allocate,
/// or return OK with a point count different from the header's claim.
std::optional<OracleFailure> CheckMutantDecode(
    const compress::Compressor& codec, const Mutant& mutant);

/// Derives the mutation battery for one chunk store file image (the on-disk
/// format of store/format.h), structure-aware against its framing:
///  - truncations at the header / chunk-frame / index / footer boundaries
///    and mid-frame (torn-write shapes),
///  - single-bit flips across the file header, the first chunk frame's
///    framing fields, the index block head and the footer,
///  - u32/u64 splices of the frame payload size, the index entry count, an
///    index entry's point count, and the footer's index offset,
///  - `random_bit_flips` seeded random bit flips and byte splices anywhere.
/// The image should be a valid store file; deterministic in
/// (image, seed, random_bit_flips).
std::vector<Mutant> GenerateStoreMutants(std::span<const uint8_t> image,
                                         uint64_t seed, int random_bit_flips);

/// Opens one mutated store image and, when the open succeeds, drills its
/// answers for self-consistency: the full range decode must match the
/// declared point count and grid, COUNT must equal the decoded length, and
/// pushdown aggregates must agree with decode-then-aggregate. The store
/// contract mirrors the decoder contract: any non-OK Status passes (a
/// truncated file legitimately opens as a salvaged prefix), but a crash or
/// a silently inconsistent answer is a failure.
std::optional<OracleFailure> CheckStoreMutant(const Mutant& mutant);

/// Derives the mutation battery for one serve WAL image (the on-disk format
/// of serve/wal.h), structure-aware against its framing:
///  - truncations inside the header, at the first record's structural
///    boundaries and mid-payload (torn-write shapes),
///  - single-bit flips across the header and the first record's framing,
///    payload edges and CRC,
///  - u32 splices of the first record's payload-size field,
///  - `random_bit_flips` seeded random bit flips and byte splices anywhere.
/// The image should be a valid WAL; deterministic in
/// (image, seed, random_bit_flips).
std::vector<Mutant> GenerateWalMutants(std::span<const uint8_t> image,
                                       uint64_t seed, int random_bit_flips);

/// Replays one mutated WAL image. The replay contract: Corruption passes
/// (an unreadable header), but an OK replay must be exactly the longest
/// valid prefix — valid_bytes within the image, `clean` iff nothing was
/// dropped, and the header plus the re-encoded records byte-identical to
/// that prefix. A crash or any deviation is a failure.
std::optional<OracleFailure> CheckWalMutant(const Mutant& mutant);

}  // namespace lossyts::conform

#endif  // LOSSYTS_CONFORM_MUTATE_H_
