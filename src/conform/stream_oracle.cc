#include "conform/stream_oracle.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "compress/pipeline.h"
#include "core/rng.h"
#include "stream/streaming_compressor.h"

namespace lossyts::conform {

namespace {

std::optional<OracleFailure> Fail(const char* oracle, std::string detail,
                                  size_t index = 0) {
  return OracleFailure{oracle, std::move(detail), index};
}

}  // namespace

std::vector<StreamMutant> GenerateStreamMutants(const TimeSeries& series,
                                                uint64_t seed) {
  const size_t n = series.size();
  std::vector<StreamMutant> mutants;
  if (n == 0) return mutants;
  Rng rng(seed);

  StreamMutant replay;
  replay.kind = "replay";
  replay.prefix = n;
  mutants.push_back(replay);

  StreamMutant first;
  first.kind = "flush-first";
  first.prefix = 1;
  mutants.push_back(first);

  if (n >= 3) {
    StreamMutant mid;
    mid.kind = "flush-mid";
    mid.prefix = 1 + static_cast<size_t>(rng.UniformInt(n - 1));
    mutants.push_back(mid);
  }

  StreamMutant nan_inject;
  nan_inject.kind = "nan-inject";
  nan_inject.prefix = n;
  nan_inject.inject_at = static_cast<size_t>(rng.UniformInt(n + 1));
  nan_inject.inject_value = std::numeric_limits<double>::quiet_NaN();
  mutants.push_back(nan_inject);

  StreamMutant inf_inject;
  inf_inject.kind = "inf-inject";
  inf_inject.prefix = n;
  inf_inject.inject_at = static_cast<size_t>(rng.UniformInt(n + 1));
  inf_inject.inject_value = std::numeric_limits<double>::infinity();
  mutants.push_back(inf_inject);

  return mutants;
}

std::optional<OracleFailure> CheckStreamMutant(const std::string& codec_name,
                                               const TimeSeries& series,
                                               double error_bound,
                                               const StreamMutant& mutant) {
  Result<std::unique_ptr<stream::StreamingCompressor>> streaming =
      stream::MakeStreamingCompressor(codec_name);
  if (!streaming.ok()) {
    return Fail("stream-setup", streaming.status().message());
  }
  Result<std::unique_ptr<compress::Compressor>> batch =
      compress::MakeCompressor(codec_name);
  if (!batch.ok()) return Fail("stream-setup", batch.status().message());

  Result<TimeSeries> prefix = series.Slice(0, mutant.prefix);
  if (!prefix.ok()) {
    return Fail("stream-setup", "bad prefix " + std::to_string(mutant.prefix) +
                                    ": " + prefix.status().message());
  }
  const Result<std::vector<uint8_t>> batch_blob =
      (*batch)->Compress(*prefix, error_bound);

  const Status opened = (*streaming)
                            ->Open(series.start_timestamp(),
                                   series.interval_seconds(), error_bound);
  if (!opened.ok()) {
    // Open validates what batch Compress validates; ok-ness must agree.
    if (batch_blob.ok()) {
      return Fail("stream-flush-bytes",
                  "Open rejected what batch accepts: " + opened.message());
    }
    return std::nullopt;
  }

  std::vector<compress::SegmentModel> segments;
  for (size_t i = 0; i <= mutant.prefix; ++i) {
    if (i == mutant.inject_at) {
      const uint64_t points_before = (*streaming)->points();
      const Status rejected =
          (*streaming)->Append(mutant.inject_value, &segments);
      if (rejected.ok() ||
          rejected.code() != StatusCode::kInvalidArgument ||
          (*streaming)->points() != points_before) {
        return Fail("stream-nonfinite-reject",
                    "non-finite point at " + std::to_string(i) +
                        " was not cleanly rejected",
                    i);
      }
    }
    if (i == mutant.prefix) break;
    if (Status s = (*streaming)->Append(series[i], &segments); !s.ok()) {
      return Fail("stream-append",
                  "finite point rejected at " + std::to_string(i) + ": " +
                      s.message(),
                  i);
    }
  }

  Result<std::vector<uint8_t>> flushed = (*streaming)->Flush(&segments);
  if (flushed.ok() != batch_blob.ok()) {
    const std::string stream_state =
        flushed.ok() ? "OK" : flushed.status().message();
    const std::string batch_state =
        batch_blob.ok() ? "OK" : batch_blob.status().message();
    return Fail("stream-flush-bytes", "ok-ness differs: stream " +
                                          stream_state + " vs batch " +
                                          batch_state);
  }
  if (!flushed.ok()) return std::nullopt;  // Both rejected: agreement.

  if (flushed->size() != batch_blob->size() ||
      std::memcmp(flushed->data(), batch_blob->data(), flushed->size()) != 0) {
    return Fail("stream-flush-bytes",
                "Flush() blob differs from batch Compress (" +
                    std::to_string(flushed->size()) + " vs " +
                    std::to_string(batch_blob->size()) + " bytes)");
  }

  // Coverage: segments must tile [0, prefix) in order.
  uint64_t covered = 0;
  for (size_t s = 0; s < segments.size(); ++s) {
    if (segments[s].start != covered || segments[s].length == 0) {
      return Fail("stream-coverage",
                  "segment " + std::to_string(s) + " starts at " +
                      std::to_string(segments[s].start) +
                      ", expected " + std::to_string(covered),
                  s);
    }
    covered += segments[s].length;
  }
  if (covered != mutant.prefix) {
    return Fail("stream-coverage",
                "segments cover " + std::to_string(covered) + " of " +
                    std::to_string(mutant.prefix) + " points");
  }

  // Decoded-value identity: ValueAt must be the decoder, bit for bit.
  Result<TimeSeries> decoded = (*batch)->Decompress(*flushed);
  if (!decoded.ok()) {
    return Fail("stream-segment-values",
                "batch decode of the flushed blob failed: " +
                    decoded.status().message());
  }
  const std::vector<double>& dv = decoded->values();
  for (const compress::SegmentModel& segment : segments) {
    for (size_t k = 0; k < segment.length; ++k) {
      const size_t i = static_cast<size_t>(segment.start) + k;
      const double rec = segment.ValueAt(k);
      uint64_t a;
      uint64_t b;
      std::memcpy(&a, &rec, sizeof(a));
      std::memcpy(&b, &dv[i], sizeof(b));
      if (a != b) {
        return Fail("stream-segment-values",
                    "ValueAt differs from decode at index " +
                        std::to_string(i),
                    i);
      }
    }
  }
  return std::nullopt;
}

std::vector<OracleFailure> RunStreamOracles(const std::string& codec_name,
                                            const TimeSeries& series,
                                            double error_bound, uint64_t seed,
                                            size_t* checked) {
  std::vector<OracleFailure> failures;
  if (checked != nullptr) *checked = 0;
  if (!stream::HasStreamingCompressor(codec_name)) return failures;
  const std::vector<StreamMutant> mutants =
      GenerateStreamMutants(series, seed);
  for (const StreamMutant& m : mutants) {
    if (checked != nullptr) ++*checked;
    if (auto f = CheckStreamMutant(codec_name, series, error_bound, m);
        f.has_value()) {
      f->detail = "[" + m.kind + "] " + f->detail;
      failures.push_back(std::move(*f));
    }
  }
  return failures;
}

}  // namespace lossyts::conform
