#ifndef LOSSYTS_STORE_WRITER_H_
#define LOSSYTS_STORE_WRITER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/durable_file.h"
#include "core/status.h"
#include "core/time_series.h"
#include "store/format.h"

namespace lossyts::store {

/// Append-only ingestion of one regular series into a chunk store file.
///
/// Points are buffered until a full chunk span accumulates; each chunk is
/// trial-compressed with every configured codec at the store's error bound
/// and the smallest blob wins (ties break toward the earlier codec name, so
/// ingestion is fully deterministic: same input + options ⇒ byte-identical
/// file). Chunk frames are flushed as they complete, which is what makes a
/// killed ingestion salvageable: the file is always a valid header plus a
/// prefix of complete frames, possibly followed by one torn frame that the
/// reader's CRC scan drops. Finish() writes the tail chunk, the sparse time
/// index and the footer that marks the file complete.
///
/// With StoreOptions::sync the writer also carries a power-loss contract:
/// the directory entry is fsync'd at creation, the data region is fsync'd
/// before the footer goes out, and the footer is fsync'd before Finish
/// returns — so a machine that loses power after a clean close can never
/// reopen the file as footer-valid-but-data-torn.
///
/// Not thread-safe; one writer per file.
class StoreWriter {
 public:
  /// Creates (truncating) `path`. Validates the error bound, resolves every
  /// codec name through compress::MakeCompressor, and writes the file header.
  static Result<std::unique_ptr<StoreWriter>> Create(
      const std::string& path, const StoreOptions& options);

  /// Appends `series` to the stream. The first call fixes the start
  /// timestamp and sampling interval; every later call must continue the
  /// regular grid exactly (same interval, first timestamp == the next
  /// expected one) — gaps are InvalidArgument, not silently bridged.
  Status Append(const TimeSeries& series);

  /// Flushes the partial tail chunk (if any), writes the index block and
  /// footer, and closes the file. No Append may follow.
  Status Finish();

  uint64_t points_written() const { return points_buffered_ + points_flushed_; }
  size_t chunks_written() const { return chunks_.size(); }
  uint64_t bytes_written() const { return offset_; }

 private:
  StoreWriter() = default;

  /// Compresses `values` starting at `first_timestamp` and appends the
  /// framed chunk record. Carries the "store_write" failpoint: when it
  /// fires, half the frame reaches the file before the error returns,
  /// modelling a crash mid-write (the torn tail the reader must drop).
  Status WriteChunk(const std::vector<double>& values,
                    int64_t first_timestamp);
  Status WriteAll(std::span<const uint8_t> bytes);
  /// fsyncs the file when options_.sync is set; a no-op otherwise.
  Status SyncFile();

  /// Closed on Finish; an abandoned or crashed ingestion closes it on
  /// destruction and leaves a salvageable frame prefix behind.
  durable::File file_;
  StoreOptions options_;
  std::vector<std::unique_ptr<compress::Compressor>> codecs_;

  bool finished_ = false;
  bool failed_ = false;

  int64_t start_timestamp_ = 0;
  int32_t interval_ = 0;
  bool grid_fixed_ = false;

  std::vector<double> buffer_;       ///< Points not yet in a written chunk.
  uint64_t points_flushed_ = 0;      ///< Points inside written chunks.
  uint64_t points_buffered_ = 0;     ///< == buffer_.size(), kept as u64.
  uint64_t offset_ = 0;              ///< Bytes written so far.
  std::vector<ChunkInfo> chunks_;    ///< Index entries accumulated so far.
};

}  // namespace lossyts::store

#endif  // LOSSYTS_STORE_WRITER_H_
