#ifndef LOSSYTS_STORE_READER_H_
#define LOSSYTS_STORE_READER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/time_series.h"
#include "store/format.h"

namespace lossyts::store {

/// Read access to one chunk store file.
///
/// Open() loads the whole file (the working set of every evaluation dataset
/// is in-memory sized) and validates it in one of two modes:
///
///  - A file with a valid footer is *complete*: the index block must parse,
///    every chunk frame must CRC-verify and chain contiguously on the time
///    grid, and the scan must agree with the index byte-for-byte — any
///    disagreement is Corruption, because a file that claims completeness
///    and contradicts itself must not silently serve answers.
///  - A file without a valid footer is a *salvage*: the scan keeps the
///    longest prefix of valid frames and drops the torn tail, mirroring the
///    eval/checkpoint salvage contract; clean() reports false so callers can
///    distinguish recovered data from a finished ingestion.
///
/// Point and range reads are served through a mutex-guarded decoded-chunk
/// LRU cache with hit/miss counters, bounded to chunk_cache_capacity()
/// entries so a long-lived process (the serve daemon) cannot grow a reader
/// without limit. Point reads on model chunks (PMC/Swing)
/// walk the segment list without materializing the chunk; on Gorilla/Chimp
/// chunks they early-stop via DecompressPrefix. ReadRange fans the chunk
/// decodes out on core/thread_pool and appends the selected runs in chunk
/// order, so the result is byte-identical for every jobs value.
///
/// Thread-safe: all read methods may be called concurrently.
class StoreReader {
 public:
  /// Reads the file with one sized read, then validates it as OpenBytes
  /// does. NotFound when `path` cannot be opened; IoError when it is not a
  /// regular file (a directory, say) or the read fails.
  static Result<std::unique_ptr<StoreReader>> Open(const std::string& path);
  /// Same validation over an in-memory image (the conform mutation battery's
  /// entry point — mutants never touch the filesystem).
  static Result<std::unique_ptr<StoreReader>> OpenBytes(
      std::vector<uint8_t> bytes);

  const StoreHeader& header() const { return header_; }
  /// True when the footer was present and consistent; false for a salvaged
  /// (crash-recovered) prefix.
  bool clean() const { return clean_; }
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }
  uint64_t total_points() const { return total_points_; }
  int64_t start_timestamp() const { return start_timestamp_; }
  int32_t interval_seconds() const { return interval_; }
  int64_t last_timestamp() const;  ///< Timestamp of the final point.
  size_t file_size() const { return bytes_.size(); }

  /// Reads the reconstructed value at exactly `timestamp`. NotFound outside
  /// the stored range, InvalidArgument off the sampling grid.
  Result<double> ReadPoint(int64_t timestamp) const;

  /// Reconstructs all points with timestamps in [t0, t1] (inclusive; the
  /// range is clamped to the stored extent, and an empty intersection yields
  /// an empty series). Chunk decodes run on `jobs` threads.
  Result<TimeSeries> ReadRange(int64_t t0, int64_t t1, int jobs = 1) const;

  /// Reconstructs the entire series.
  Result<TimeSeries> ReadAll(int jobs = 1) const;

  /// The point span selected by [t0, t1] after grid clamping; count == 0
  /// means the intersection is empty (other fields are then meaningless).
  struct Selection {
    size_t first_chunk = 0;
    size_t last_chunk = 0;
    uint32_t first_local = 0;  ///< In-chunk offset within first_chunk.
    uint32_t last_local = 0;   ///< In-chunk offset within last_chunk.
    uint64_t count = 0;
    int64_t start_timestamp = 0;
  };
  Result<Selection> Select(int64_t t0, int64_t t1) const;

  /// Decoded values of chunk `index`, via the cache (decode-once per chunk
  /// unless ClearChunkCache intervenes): DecodeChunk on a miss.
  Result<std::shared_ptr<const std::vector<double>>> DecodeChunkValues(
      size_t index) const;

  /// Decodes chunk `index` without the cache: the codec's full decode,
  /// checked against the chunk's point count. For one-pass readers that
  /// never come back to a chunk (QueryStoreDir's metric path).
  Result<std::vector<double>> DecodeChunk(size_t index) const;

  /// Copy of chunk `index`'s codec blob (for segment parsing / pushdown).
  std::vector<uint8_t> ChunkPayload(size_t index) const;

  /// Chunk-cache effectiveness counters (monotone; approximate only in the
  /// sense that two threads racing on the same cold chunk may both count a
  /// miss). Surfaced through the Progress reporter by the CLI and stages.
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;
  void ClearChunkCache();

  /// Decoded chunks currently cached (always <= chunk_cache_capacity()).
  size_t cached_chunks() const;
  /// LRU bound on the decoded-chunk cache. Defaults to
  /// kDefaultChunkCacheCapacity; setting a smaller capacity evicts
  /// least-recently-used entries immediately. Must be >= 1.
  size_t chunk_cache_capacity() const;
  void SetChunkCacheCapacity(size_t capacity);

  static constexpr size_t kDefaultChunkCacheCapacity = 64;

 private:
  StoreReader() = default;

  Status Load(std::vector<uint8_t> bytes);
  /// Parses and validates the frame at `offset`; `strict_end` is the first
  /// byte the frame must not cross (index start in complete mode, EOF in
  /// salvage mode).
  Result<ChunkInfo> ParseFrameAt(size_t offset, size_t strict_end) const;

  std::vector<uint8_t> bytes_;
  StoreHeader header_;
  std::vector<ChunkInfo> chunks_;
  std::vector<uint64_t> chunk_start_index_;  ///< Global index of chunk start.
  bool clean_ = false;
  uint64_t total_points_ = 0;
  int64_t start_timestamp_ = 0;
  int32_t interval_ = 1;

  /// One cached decode, threaded into the recency list; `lru` points at this
  /// entry's position in lru_ (front = most recent).
  struct CacheEntry {
    std::shared_ptr<const std::vector<double>> values;
    std::list<size_t>::iterator lru;
  };
  /// Callers hold cache_mu_. Moves `it` to the recency front / inserts a new
  /// entry and evicts past the capacity.
  void TouchLocked(std::map<size_t, CacheEntry>::iterator it) const;
  std::shared_ptr<const std::vector<double>> InsertLocked(
      size_t index, std::shared_ptr<const std::vector<double>> values) const;

  mutable std::mutex cache_mu_;
  mutable std::map<size_t, CacheEntry> cache_;
  mutable std::list<size_t> lru_;  ///< Chunk indices, most recent first.
  mutable size_t cache_capacity_ = kDefaultChunkCacheCapacity;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;
};

}  // namespace lossyts::store

#endif  // LOSSYTS_STORE_READER_H_
