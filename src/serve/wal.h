#ifndef LOSSYTS_SERVE_WAL_H_
#define LOSSYTS_SERVE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/durable_file.h"
#include "core/status.h"

namespace lossyts::serve {

// Per-shard write-ahead log (all integers little-endian through
// compress::ByteWriter):
//
//   WalFile   := WalHeader WalRecord*
//   WalHeader := u32 kWalMagic, u8 version, u32 crc32(version)
//   WalRecord := one frame with magic kWalRecordMagic and a 1..kWalMaxPayload
//                byte payload: the library's one CRC frame
//                (compress/serde.h), shared with the chunk store and the
//                serve protocol
//   payload   := u8 id_len, id bytes, i64 first_timestamp,
//                i32 interval_seconds, u64 first_index, u32 count,
//                count x f64 values
//
// The payload is written and read by one field list in wal.cc (encodings in
// serve/fields.h).
//
// `first_index` is the series' point count before the append, which makes
// replay idempotent: a record whose points are already covered by a
// checkpointed store is skipped (or suffix-applied) instead of re-applied,
// so a crash between "stores checkpointed" and "WAL reset" double-applies
// nothing. The durability contract is fsync-before-ack: a record is only
// acknowledged after WalWriter::Sync returns, and a process killed at any
// instruction leaves the log as a valid prefix of complete records plus at
// most one torn tail that ReplayWal drops — exactly the store salvage
// semantics, applied to the log.

inline constexpr uint32_t kWalMagic = 0x5753544Cu;        // "LTSW"
inline constexpr uint32_t kWalRecordMagic = 0x5253544Cu;  // "LTSR"
inline constexpr uint8_t kWalVersion = 1;
inline constexpr size_t kWalHeaderSize = 9;
/// Upper bound on one record's payload; a corrupt length field past this is
/// rejected before any allocation.
inline constexpr uint32_t kWalMaxPayload = 64u << 20;

/// One logical append, as logged and replayed.
struct WalRecord {
  std::string series;
  int64_t first_timestamp = 0;
  int32_t interval_seconds = 0;
  uint64_t first_index = 0;  ///< Series point count before this append.
  std::vector<double> values;
};

/// Serializes one record frame. InvalidArgument when the payload would be
/// over kWalMaxPayload (replay would refuse the record).
Result<std::vector<uint8_t>> EncodeWalRecord(const WalRecord& record);

/// Outcome of scanning a log: the longest valid prefix of records, whether a
/// torn tail was dropped, and the byte length of the valid prefix (the
/// offset a reopening writer truncates to before appending).
struct WalReplay {
  std::vector<WalRecord> records;
  bool clean = true;
  uint64_t valid_bytes = 0;
};

/// Salvage-scans a log image. Corruption only when the header itself is
/// unreadable (an empty or alien file); torn or corrupt records merely end
/// the valid prefix.
Result<WalReplay> ReplayWalBytes(const std::vector<uint8_t>& bytes);

/// ReplayWalBytes over a file. NotFound when the file does not exist.
Result<WalReplay> ReplayWalFile(const std::string& path);

/// Replaces `path` with an empty log (a fresh header) through
/// durable::AtomicReplace — the WAL reset step of a shard checkpoint.
Status ResetWalFile(const std::string& path);

/// Append side of the log; single writer per file (the shard's drain task).
///
/// Append buffers nothing: each record is written to the file immediately
/// (so a kill leaves at most one torn frame), but it is NOT durable — and
/// must not be acknowledged — until the next Sync returns OK. Either call
/// failing marks the writer dead: every later call refuses, mirroring
/// StoreWriter's crash semantics.
class WalWriter {
 public:
  /// Opens `path` for appending, truncating it to `valid_bytes` first (the
  /// prefix ReplayWalFile validated). A missing file, or a `valid_bytes`
  /// short of the header, is replaced by a fresh log (ResetWalFile).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t valid_bytes);

  /// Writes one record frame. Carries the "wal_write" failpoint: on fire,
  /// half the frame reaches the file and the writer is dead.
  Status Append(const WalRecord& record);

  /// fsyncs everything appended so far. Carries the "wal_fsync" failpoint
  /// (fires before the fsync: nothing since the last Sync may be acked).
  Status Sync();

  /// Bytes in the log (header + all appended record frames).
  uint64_t bytes() const { return bytes_; }

 private:
  WalWriter() = default;

  durable::File file_;
  bool failed_ = false;
  uint64_t bytes_ = 0;
};

}  // namespace lossyts::serve

#endif  // LOSSYTS_SERVE_WAL_H_
