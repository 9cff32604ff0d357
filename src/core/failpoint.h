#ifndef LOSSYTS_CORE_FAILPOINT_H_
#define LOSSYTS_CORE_FAILPOINT_H_

#include <cstdint>
#include <string>

#include "core/status.h"

namespace lossyts {

/// Deterministic fault injection in the LevelDB/RocksDB failpoint style.
///
/// Production code marks named injection sites with LOSSYTS_FAILPOINT("site");
/// a site costs one relaxed atomic load when nothing is armed. Tests (or the
/// LOSSYTS_FAILPOINTS environment variable) arm a site to fail on the k-th
/// future hit, which turns "the compressor failed mid-sweep" from a code-review
/// argument into an executable scenario.
///
/// Sites currently wired in:
///   "compress"    — compress::RunPipeline, before the codec's Compress
///   "decompress"  — compress::RunPipeline, before the codec's Decompress
///   "train_step"  — forecast::NnForecaster::Fit, before each batch step
///   "cache_write" — eval::GridCheckpointWriter::Append, before the row write
///   "store_write" — store::StoreWriter, before each chunk frame and before
///                   the index/footer epilogue; on fire half the frame goes
///                   out through durable::File::Append, a genuinely torn
///                   tail the reader's salvage scan recovers from
///   "wal_write"   — serve::WalWriter::Append, before each record frame; on
///                   fire half the frame reaches the log (File::Append) and
///                   the writer is dead, the torn tail WAL replay must drop
///   "wal_fsync"   — serve::WalWriter::Sync, before the fsync that makes a
///                   batch of acked appends durable
///   "shard_flush" — serve::Shard checkpoint, before each per-series store
///                   rewrite and before the WAL reset, modelling a crash in
///                   the middle of a checkpoint (replay must stay idempotent)
///   "socket_write"— serve::WriteFrame, before the socket send, modelling a
///                   peer that dies between request and reply
///   "query_fetch" — query::QueryStoreDir, at the head of each per-series
///                   fetch task, modelling a store that dies mid-query (the
///                   first failure in canonical series order is surfaced)
///   "autodiff_backward_perturb" — nn::MatMul's backward; corrupts dA so the
///                   numcheck gradient oracle's seeded-fault drill has a
///                   real bug to catch (used as a trigger, not a Status)
class FailPoints {
 public:
  /// Arms `site`: hits are counted from 1, and hits `fire_on` through
  /// `fire_on + times - 1` fail with Status::Internal. Re-arming a site
  /// replaces the previous arming and resets its hit counter.
  static void Arm(const std::string& site, uint64_t fire_on,
                  uint64_t times = 1);

  /// Disarms one site (its hit counter is discarded).
  static void Disarm(const std::string& site);

  /// Disarms every site; tests call this in TearDown so armings never leak.
  static void DisarmAll();

  /// Counts a hit at `site`; returns a non-OK Internal status exactly when the
  /// site is armed and the hit falls in the firing window. Prefer the
  /// LOSSYTS_FAILPOINT macro at call sites.
  static Status Hit(const char* site);

  /// Hits recorded at `site` since it was last armed (0 when not armed).
  static uint64_t HitCount(const std::string& site);

  /// Parses an arming spec: comma- or semicolon-separated `site@k` or
  /// `site@kxN` entries, e.g. "compress@2,train_step@1x3". Malformed entries
  /// are ignored. The LOSSYTS_FAILPOINTS environment variable is parsed with
  /// this at startup so recovery paths can be exercised from the CLI.
  static void ArmFromSpec(const std::string& spec);
};

}  // namespace lossyts

/// Injection site marker: fails the enclosing function (returning Status or
/// Result<T>) when the site is armed and firing; a no-op otherwise.
#define LOSSYTS_FAILPOINT(site)                                        \
  do {                                                                 \
    ::lossyts::Status lossyts_failpoint_status =                       \
        ::lossyts::FailPoints::Hit(site);                              \
    if (!lossyts_failpoint_status.ok()) return lossyts_failpoint_status; \
  } while (0)

#endif  // LOSSYTS_CORE_FAILPOINT_H_
