#ifndef LOSSYTS_BENCH_BENCH_COMMON_H_
#define LOSSYTS_BENCH_BENCH_COMMON_H_

// Shared configuration for the per-table/per-figure bench binaries. Every
// forecasting bench uses the same GridOptions (and thus the same checkpoint
// cache), so the expensive model-training sweep runs once no matter which
// bench is executed first. The compression-only sweep takes under a second
// and is recomputed by each bench that needs it. The streaming driver below
// is shared with the stream tests and speed_floors.

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/change_detection.h"
#include "compress/pipeline.h"
#include "core/rng.h"
#include "eval/compression_sweep.h"
#include "eval/grid.h"
#include "stream/drift.h"
#include "stream/streaming_compressor.h"

namespace lossyts::bench {

/// The canonical forecasting grid: all datasets/models/compressors, the 13
/// paper error bounds, two seeds, laptop-scale series (DESIGN.md scaling
/// note). ~5 minutes of one-time compute, cached to CSV afterwards.
inline eval::GridOptions DefaultGridOptions() {
  eval::GridOptions options;
  options.seeds = {1, 2};
  options.data.length_fraction = 0.05;
  options.verbose = true;
  return options;
}

/// The canonical compression sweep at the larger statistics-grade scale.
inline eval::SweepOptions DefaultSweepOptions() {
  eval::SweepOptions options;
  options.data.length_fraction = 0.125;
  options.verbose = true;
  return options;
}

/// Cache flags shared by every grid-consuming bench:
///   --resume        salvage and resume a partial grid checkpoint (default)
///   --fresh         delete the checkpoint and recompute from scratch
///   --cache <path>  checkpoint location (default DefaultGridCachePath())
///   --jobs N        worker threads for the grid (1 = sequential, 0 = all
///                   hardware threads); output is identical for every N
struct BenchFlags {
  bool fresh = false;
  std::string cache_path = eval::DefaultGridCachePath();
  int jobs = 1;
};

inline BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fresh") == 0) {
      flags.fresh = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      flags.fresh = false;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      flags.cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      flags.jobs = std::atoi(argv[++i]);
    }
  }
  return flags;
}

/// Prints a one-line-per-cell failure report to stderr; quiet when clean.
inline void ReportGridFailures(const std::vector<eval::GridRecord>& records) {
  const std::vector<const eval::GridRecord*> failed =
      eval::FailedRecords(records);
  if (failed.empty()) return;
  std::fprintf(stderr, "[grid] %zu of %zu cells failed:\n", failed.size(),
               records.size());
  for (const eval::GridRecord* r : failed) {
    std::fprintf(stderr, "[grid]   %s/%s/%s eb=%g seed=%llu (attempts %d): %s\n",
                 r->dataset.c_str(), r->model.c_str(), r->compressor.c_str(),
                 r->error_bound, static_cast<unsigned long long>(r->seed),
                 r->attempts, r->error.c_str());
  }
}

/// Loads the canonical grid for a bench binary, honoring --resume / --fresh /
/// --cache / --jobs. Failed cells are reported to stderr and filtered out, so
/// the per-table aggregations below only ever see completed measurements.
inline Result<std::vector<eval::GridRecord>> LoadBenchGrid(int argc,
                                                           char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv);
  if (flags.fresh) std::remove(flags.cache_path.c_str());
  eval::GridOptions options = DefaultGridOptions();
  options.jobs = flags.jobs;
  Result<std::vector<eval::GridRecord>> grid =
      eval::LoadOrRunGrid(options, flags.cache_path);
  if (!grid.ok()) return grid.status();
  ReportGridFailures(*grid);
  std::vector<eval::GridRecord> ok_records;
  ok_records.reserve(grid->size());
  for (eval::GridRecord& r : *grid) {
    if (!r.failed()) ok_records.push_back(std::move(r));
  }
  return ok_records;
}

/// Mean TFE per (dataset, compressor, error bound) across models and seeds.
inline std::map<std::string, std::vector<double>> GroupTfe(
    const std::vector<eval::GridRecord>& records,
    const std::string& dataset, const std::string& compressor) {
  std::map<std::string, std::vector<double>> by_eb;
  for (const eval::GridRecord& r : records) {
    if (r.dataset != dataset || r.compressor != compressor) continue;
    char key[32];
    std::snprintf(key, sizeof(key), "%.4f", r.error_bound);
    by_eb[key].push_back(r.tfe);
  }
  return by_eb;
}

// --- Shared streaming driver (src/stream/ benches) -------------------------
//
// The streaming section of futurework_change_detection, the drift-corpus
// stream tests (tests/stream/) and speed_floors' ingest row all drive the
// same machinery: a drifting series with known change points is fed one
// point at a time through a StreamingCompressor, the emitted segments feed a
// SegmentDriftDetector, and the result is checked against the offline twin
// (batch compress → decompress → analysis::DetectChanges), which must match
// alarm-for-alarm in point-CUSUM mode.

/// Synthetic drifting series: `shifts` are the indices where the level jumps
/// by ±`step` (alternating sign) over Gaussian noise — the ground truth for
/// detection-delay scoring.
inline TimeSeries MakeDriftSeries(size_t n, const std::vector<size_t>& shifts,
                                  double level0, double step,
                                  double noise_sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double level = level0;
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (next < shifts.size() && i == shifts[next]) {
      level += (next % 2 == 0 ? step : -step);
      ++next;
    }
    v[i] = level + noise_sigma * rng.Normal();
  }
  return TimeSeries(0, 60, std::move(v));
}

/// One series of the drift corpus and its ground-truth shift indices.
struct DriftCase {
  std::string name;
  TimeSeries series;
  std::vector<size_t> truth;
};

/// The drift corpus: 4 series of 6000 points with a level shift every 1000
/// points. Each shift is 0.4x the series' level over noise of sigma 0.6, far
/// above a 0.05 bound, so every one is detectable after compression.
inline std::vector<DriftCase> MakeDriftCorpus() {
  constexpr size_t kPoints = 6000;
  std::vector<DriftCase> corpus;
  for (int s = 0; s < 4; ++s) {
    std::vector<size_t> truth;
    for (size_t t = kPoints / 6; t + kPoints / 12 < kPoints; t += kPoints / 6) {
      truth.push_back(t);
    }
    const double level = 30.0 + 5.0 * s;
    corpus.push_back({"drift-" + std::to_string(s),
                      MakeDriftSeries(kPoints, truth, level, 0.4 * level, 0.6,
                                      101 + static_cast<uint64_t>(s)),
                      truth});
  }
  return corpus;
}

/// Output of one streaming detection pass.
struct StreamDetection {
  std::vector<size_t> alarms;    ///< Online alarms, as point indices.
  std::vector<uint8_t> blob;     ///< Flush() output (byte-identical to batch).
  uint64_t segments = 0;
};

/// Streams `series` through `codec` at `eb`, feeding every closed segment to
/// a point-CUSUM SegmentDriftDetector configured with `cusum`.
inline Result<StreamDetection> StreamDetect(
    const TimeSeries& series, const std::string& codec, double eb,
    const analysis::CusumOptions& cusum) {
  Result<std::unique_ptr<stream::StreamingCompressor>> made =
      stream::MakeStreamingCompressor(codec);
  if (!made.ok()) return made.status();
  if (Status s = (*made)->Open(series.start_timestamp(),
                               series.interval_seconds(), eb);
      !s.ok()) {
    return s;
  }
  stream::SegmentDriftOptions drift;
  drift.mode = stream::SegmentDriftOptions::Mode::kPointCusum;
  drift.cusum = cusum;
  stream::SegmentDriftDetector detector(drift);
  StreamDetection out;
  std::vector<compress::SegmentModel> closed;
  for (double v : series.values()) {
    closed.clear();
    if (Status s = (*made)->Append(v, &closed); !s.ok()) return s;
    for (const compress::SegmentModel& seg : closed) {
      detector.OnSegment(seg, &out.alarms);
    }
  }
  closed.clear();
  Result<std::vector<uint8_t>> blob = (*made)->Flush(&closed);
  if (!blob.ok()) return blob.status();
  for (const compress::SegmentModel& seg : closed) {
    detector.OnSegment(seg, &out.alarms);
  }
  if (Status s = detector.Finish(&out.alarms); !s.ok()) return s;
  out.blob = std::move(*blob);
  out.segments = (*made)->segments();
  return out;
}

/// The offline twin: batch compress → decompress → DetectChanges. When
/// `batch_blob` is non-null it receives the batch compression output (the
/// byte-identity oracle for StreamDetect's blob).
inline Result<std::vector<size_t>> OfflineAlarms(
    const TimeSeries& series, const std::string& codec, double eb,
    const analysis::CusumOptions& cusum,
    std::vector<uint8_t>* batch_blob = nullptr) {
  Result<std::unique_ptr<compress::Compressor>> made =
      compress::MakeCompressor(codec);
  if (!made.ok()) return made.status();
  Result<std::vector<uint8_t>> blob = (*made)->Compress(series, eb);
  if (!blob.ok()) return blob.status();
  Result<TimeSeries> decoded = (*made)->Decompress(*blob);
  if (!decoded.ok()) return decoded.status();
  if (batch_blob != nullptr) *batch_blob = std::move(*blob);
  return analysis::DetectChanges(decoded->values(), cusum);
}

/// Mean detection delay (in points) of `alarms` against `truth`, counting
/// only shifts with an alarm inside [shift, shift + window). Returns the
/// number of detected shifts via `*detected`; -1 when none were.
inline double MeanDetectionDelay(const std::vector<size_t>& alarms,
                                 const std::vector<size_t>& truth,
                                 size_t window, size_t* detected = nullptr) {
  size_t hits = 0;
  double total = 0.0;
  for (size_t t : truth) {
    for (size_t a : alarms) {
      if (a >= t && a < t + window) {
        ++hits;
        total += static_cast<double>(a - t);
        break;
      }
    }
  }
  if (detected != nullptr) *detected = hits;
  return hits == 0 ? -1.0 : total / static_cast<double>(hits);
}

// --- Flag parsing ------------------------------------------------------

/// Value of the first `flag N` pair on the command line, or `fallback` when
/// `flag` is absent. A missing value, one that is not a decimal integer, a
/// negative one or one past INT_MAX prints a usage line naming the flag and
/// exits with status 2.
inline int ParseIntFlag(int argc, char** argv, const char* flag,
                        int fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || value > INT_MAX) {
      std::fprintf(stderr,
                   "usage: %s %s <non-negative integer> (got '%s')\n",
                   argv[0], flag, text);
      std::exit(2);
    }
    return static_cast<int>(value);
  }
  return fallback;
}

}  // namespace lossyts::bench

#endif  // LOSSYTS_BENCH_BENCH_COMMON_H_
