#include "compress/pipeline.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <string>

#include "compress/cameo.h"
#include "compress/chimp.h"
#include "compress/gorilla.h"
#include "compress/header.h"
#include "compress/lfzip.h"
#include "compress/pmc.h"
#include "compress/ppa.h"
#include "compress/serde.h"
#include "compress/swing.h"
#include "compress/sz.h"
#include "core/failpoint.h"
#include "core/metrics.h"
#include "zip/gzip.h"

namespace lossyts::compress {

std::vector<uint8_t> SerializeRawCsv(const TimeSeries& series) {
  std::string text = "timestamp,value\n";
  char buffer[64];
  for (size_t i = 0; i < series.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%lld,%.10g\n",
                  static_cast<long long>(series.TimestampAt(i)), series[i]);
    text += buffer;
  }
  return std::vector<uint8_t>(text.begin(), text.end());
}

namespace {

/// The raw side of Eq. 3 for one series: |SerializeRawCsv| and its gzip.
struct RawSizes {
  size_t csv_bytes = 0;
  size_t gz_bytes = 0;
};

/// Sweeps call RunPipeline once per (codec, bound) on the same series, and
/// the CSV serialization plus gzip of that series costs far more than the
/// codec's own encode and decode. This memo computes each exact series' raw
/// sizes once. The key is the whole series (start, interval and the value
/// bits, compared with memcmp against a stored copy), so a hit always returns
/// what a fresh computation would. It is a small LRU of fixed capacity.
class RawSizeMemo {
 public:
  RawSizes Get(const TimeSeries& series) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = Find(series);
      if (it != entries_.end()) {
        entries_.splice(entries_.begin(), entries_, it);
        return it->sizes;
      }
    }
    // Computed outside the lock; two racing misses both compute the same
    // sizes and the second insert finds the first.
    const std::vector<uint8_t> csv = SerializeRawCsv(series);
    const RawSizes sizes{csv.size(), zip::GzipCompress(csv).size()};
    std::lock_guard<std::mutex> lock(mu_);
    if (Find(series) == entries_.end()) {
      entries_.push_front({series.start_timestamp(),
                           series.interval_seconds(), series.values(), sizes});
      if (entries_.size() > kCapacity) entries_.pop_back();
    }
    return sizes;
  }

 private:
  static constexpr size_t kCapacity = 16;
  static_assert(kCapacity >= 6, "the sweep interleaves six series");

  struct Entry {
    int64_t start = 0;
    int32_t interval = 0;
    std::vector<double> values;
    RawSizes sizes;
  };

  std::list<Entry>::iterator Find(const TimeSeries& series) {
    const std::vector<double>& values = series.values();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->start == series.start_timestamp() &&
          it->interval == series.interval_seconds() &&
          it->values.size() == values.size() &&
          (values.empty() ||
           std::memcmp(it->values.data(), values.data(),
                       values.size() * sizeof(double)) == 0)) {
        return it;
      }
    }
    return entries_.end();
  }

  std::mutex mu_;
  std::list<Entry> entries_;  ///< Most recently used first.
};

RawSizes MemoizedRawSizes(const TimeSeries& series) {
  static RawSizeMemo& memo = *new RawSizeMemo();
  return memo.Get(series);
}

}  // namespace

size_t RawGzipSize(const TimeSeries& series) {
  return MemoizedRawSizes(series).gz_bytes;
}

size_t CountConstantRuns(const TimeSeries& series) {
  if (series.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < series.size(); ++i) {
    if (series[i] != series[i - 1]) ++runs;
  }
  return runs;
}

Result<PipelineResult> RunPipeline(const Compressor& compressor,
                                   const TimeSeries& series,
                                   double error_bound) {
  PipelineResult result;
  result.compressor_name = std::string(compressor.name());
  result.error_bound = error_bound;

  const RawSizes raw = MemoizedRawSizes(series);
  result.raw_bytes = raw.csv_bytes;
  result.raw_gz_bytes = raw.gz_bytes;

  LOSSYTS_FAILPOINT("compress");
  Result<std::vector<uint8_t>> blob = compressor.Compress(series, error_bound);
  if (!blob.ok()) return blob.status();
  result.compressed_bytes = blob->size();
  result.gz_bytes = zip::GzipCompress(*blob).size();
  result.compression_ratio = static_cast<double>(result.raw_gz_bytes) /
                             static_cast<double>(result.gz_bytes);

  LOSSYTS_FAILPOINT("decompress");
  Result<TimeSeries> decompressed = compressor.Decompress(*blob);
  if (!decompressed.ok()) return decompressed.status();
  if (decompressed->size() != series.size()) {
    return Status::Internal("decompressed size mismatch");
  }

  // Segment count: the segment codecs encode an explicit u32 segment count
  // right after the shared header; for other codecs fall back to constant
  // runs.
  if (compressor.name() == "PMC" || compressor.name() == "SWING" ||
      compressor.name() == "PPA" || compressor.name() == "CAMEO") {
    ByteReader reader(*blob);
    // Header: id, timestamp, interval, count.
    if (Status s = reader.Skip(1 + 4 + 2 + 4); !s.ok()) return s;
    Result<uint32_t> segments = reader.GetU32();
    if (!segments.ok()) return segments.status();
    result.segment_count = *segments;
  } else {
    result.segment_count = CountConstantRuns(*decompressed);
  }

  Result<double> rmse = Rmse(series.values(), decompressed->values());
  if (!rmse.ok()) return rmse.status();
  result.te_rmse = *rmse;
  Result<double> nrmse = Nrmse(series.values(), decompressed->values());
  if (!nrmse.ok()) return nrmse.status();
  result.te_nrmse = *nrmse;
  Result<double> rse = Rse(series.values(), decompressed->values());
  if (!rse.ok()) return rse.status();
  result.te_rse = *rse;
  Result<double> max_rel = MaxRelError(series.values(), decompressed->values());
  if (!max_rel.ok()) return max_rel.status();
  result.te_max_rel = *max_rel;

  result.decompressed = std::move(*decompressed);
  return result;
}

Result<TimeSeries> DecompressAny(std::span<const uint8_t> blob) {
  if (blob.empty()) return Status::Corruption("empty blob");
  switch (static_cast<AlgorithmId>(blob[0])) {
    case AlgorithmId::kPmc:
      return PmcCompressor().Decompress(blob);
    case AlgorithmId::kSwing:
      return SwingCompressor().Decompress(blob);
    case AlgorithmId::kSz:
      return SzCompressor().Decompress(blob);
    case AlgorithmId::kGorilla:
      return GorillaCompressor().Decompress(blob);
    case AlgorithmId::kChimp:
      return ChimpCompressor().Decompress(blob);
    case AlgorithmId::kPpa:
      return PpaCompressor().Decompress(blob);
    case AlgorithmId::kLfzip:
      return LfzipCompressor().Decompress(blob);
    case AlgorithmId::kCameo:
      return CameoCompressor().Decompress(blob);
  }
  return Status::Corruption("unknown algorithm id in blob header");
}

Result<std::unique_ptr<Compressor>> MakeCompressor(const std::string& name) {
  if (name == "PMC") return std::unique_ptr<Compressor>(new PmcCompressor());
  if (name == "SWING") {
    return std::unique_ptr<Compressor>(new SwingCompressor());
  }
  if (name == "SZ") return std::unique_ptr<Compressor>(new SzCompressor());
  if (name == "GORILLA") {
    return std::unique_ptr<Compressor>(new GorillaCompressor());
  }
  if (name == "CHIMP") {
    return std::unique_ptr<Compressor>(new ChimpCompressor());
  }
  if (name == "PPA") return std::unique_ptr<Compressor>(new PpaCompressor());
  if (name == "LFZIP") {
    return std::unique_ptr<Compressor>(new LfzipCompressor());
  }
  if (name == "CAMEO") {
    return std::unique_ptr<Compressor>(new CameoCompressor());
  }
  // InvalidArgument, not NotFound: the name is a caller-supplied argument
  // (a --codecs flag or config string), not a missing resource, and the
  // message must echo it so a typo is diagnosable from the error alone.
  return Status::InvalidArgument("unknown compressor name: \"" + name +
                                 "\"; see MakeCompressor in pipeline.h for "
                                 "the recognized spellings");
}

const std::vector<std::string>& LossyCompressorNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"PMC", "SWING", "SZ"};
  return names;
}

const std::vector<double>& PaperErrorBounds() {
  static const std::vector<double>& bounds = *new std::vector<double>{
      0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.65, 0.8};
  return bounds;
}

}  // namespace lossyts::compress
