#ifndef LOSSYTS_EVAL_CHECKPOINT_H_
#define LOSSYTS_EVAL_CHECKPOINT_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "eval/grid.h"

namespace lossyts::eval {

// Incremental, crash-tolerant persistence for grid sweeps.
//
// File layout (text, one record per line):
//
//   #lossyts-grid-checkpoint v2 options=<8-hex> metrics=<name;name;...>
//   dataset,model,compressor,...          <- human-readable column header
//   <8-hex CRC32 of the row text>,<row>   <- one line per GridRecord
//   ...
//   #complete                             <- footer, written last
//
// Each row is framed with its own CRC32 (the gzip polynomial from
// src/zip/crc32.h), so a torn final row — the normal result of killing a
// sweep mid-write — is detected and dropped while every earlier row is
// salvaged. The manifest hash ties the file to the exact GridOptions that
// produced it; resuming under different options would silently mix
// incompatible sweeps. The manifest also records the sweep's resolved
// metric-name list, so rows are only salvaged into a sweep that computes the
// same metric vector.
//
// This is the only grid cache format. A file without a v2 manifest (an
// older v1 checkpoint or plain CSV cache, or anything else) loads as
// incompatible with a reason, and LoadOrRunGrid recomputes it.

/// Hash over every GridOptions field that affects the produced records
/// (resolved dataset/model/compressor/error-bound/seed lists plus the data,
/// forecast and scenario configs, and — when beyond the pinned four — the
/// resolved metric list). Retry and verbosity knobs are excluded: they
/// change how failures are handled, not what a completed cell contains.
uint32_t GridOptionsHash(const GridOptions& options);

/// What LoadGridCheckpoint salvaged from disk.
struct GridCheckpoint {
  std::vector<GridRecord> records;  ///< Valid rows, in file order.
  bool complete = false;            ///< The "#complete" footer was present.
  /// A v2 manifest whose hash and metric list both matched.
  bool compatible = true;
  std::string reason;  ///< Why `compatible` is false, for the user.
};

/// Reads a checkpoint, salvaging every row whose CRC frame verifies; the
/// first torn or corrupt row — or a row whose metric arity does not match
/// `metric_names` — ends the scan and everything before it survives.
/// `metric_names` is the resuming sweep's resolved metric list
/// (ResolveMetricNames). NotFound when the file does not exist, Corruption
/// when it is empty.
Result<GridCheckpoint> LoadGridCheckpoint(
    const std::string& path, uint32_t options_hash,
    const std::vector<std::string>& metric_names = PinnedForecastMetrics());

/// Append-mode checkpoint writer. Open() rewrites the file with the v2
/// manifest (carrying `metric_names`) and the salvaged rows of a resumed
/// sweep; Append() writes one CRC-framed row and flushes, so a crash loses
/// at most the row being written.
///
/// Append() and MarkComplete() are mutex-guarded, so the writer doubles as
/// the single-writer end of the grid's record channel: concurrent cells
/// append through it one whole row at a time. Rows land in completion
/// order under a parallel sweep; resume keys records by CellKey, so file
/// order never matters.
class GridCheckpointWriter {
 public:
  Status Open(const std::string& path, uint32_t options_hash,
              const std::vector<GridRecord>& salvaged,
              const std::vector<std::string>& metric_names =
                  PinnedForecastMetrics());
  Status Append(const GridRecord& record);
  Status MarkComplete();

 private:
  std::mutex mu_;
  std::ofstream file_;
  std::string path_;
};

}  // namespace lossyts::eval

#endif  // LOSSYTS_EVAL_CHECKPOINT_H_
