// Engineering microbench for the chunk store. Self-checking plain binary
// (no google-benchmark): it builds single-codec stores over a synthetic
// walk and requires
//
//   * the pushdown MEAN and the full-decode MEAN to agree to 1e-9 relative,
//   * the aggregate-only pushdown query to decode zero PMC chunks,
//   * a pushdown-over-decode speedup of at least
//     LOSSYTS_MICRO_STORE_SPEEDUP (default 5x).
//
// The floor is self-relative — both paths run in this process on the same
// store — so it holds on any host, unlike an absolute wall-clock budget.
// Ingest throughput and cold point-read latency (model-chunk segment walk
// vs lossless prefix decode) are reported for the record, with no floor.
//
// Usage: micro_store [--points N] [--reps N]

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using Clock = std::chrono::steady_clock;
using lossyts::bench::MakeRandomWalkSeries;
using lossyts::bench::MsSince;
using lossyts::bench::ParseIntFlag;
using lossyts::Result;
using lossyts::TimeSeries;

std::string StorePath(const char* codec) {
  return std::string("/tmp/lossyts_micro_store_") + codec + ".lts";
}

// Builds a single-codec store over the walk and opens a reader onto it.
// Reports ingest throughput when `report` names the row.
std::unique_ptr<lossyts::store::StoreReader> MakeStore(
    const char* codec, const TimeSeries& series, int reps,
    const char* report) {
  const std::string path = StorePath(codec);
  lossyts::store::StoreOptions options;
  options.error_bound = 0.05;
  options.codecs = {codec};
  double ingest_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    auto writer = lossyts::store::StoreWriter::Create(path, options);
    if (!writer.ok() || !(*writer)->Append(series).ok() ||
        !(*writer)->Finish().ok()) {
      std::fprintf(stderr, "micro_store: cannot build %s\n", path.c_str());
      std::exit(1);
    }
    const double ms = MsSince(start);
    if (r == 0 || ms < ingest_ms) ingest_ms = ms;
  }
  if (report != nullptr) {
    std::printf("micro_store ingest[%s]   %8.3fms (%6.2f Mpts/s)\n", report,
                ingest_ms,
                static_cast<double>(series.size()) / ingest_ms / 1e3);
  }
  auto reader = lossyts::store::StoreReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "micro_store: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return std::move(*reader);
}

// Cold point reads: every read clears the chunk cache first, so PMC rows
// measure the segment walk and GORILLA rows the bounded prefix decode.
void ReportPointReads(const char* codec, lossyts::store::StoreReader& reader,
                      int count) {
  lossyts::Rng rng(7);
  const int64_t last = reader.last_timestamp();
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < count; ++i) {
    const int64_t t =
        60 * static_cast<int64_t>(rng.UniformInt(
                 static_cast<uint64_t>(last / 60 + 1)));
    reader.ClearChunkCache();
    Result<double> v = reader.ReadPoint(t);
    if (!v.ok()) {
      std::fprintf(stderr, "micro_store: %s ReadPoint(%lld) failed\n", codec,
                   static_cast<long long>(t));
      std::exit(1);
    }
  }
  const double ms = MsSince(start);
  std::printf("micro_store point-read[%s] %8.3fus/read (cold, %d reads)\n",
              codec, ms * 1e3 / count, count);
}

}  // namespace

int main(int argc, char** argv) {
  const int points = ParseIntFlag(argc, argv, "--points", 1 << 16);
  const int reps = ParseIntFlag(argc, argv, "--reps", 5);
  double floor = 5.0;
  if (const char* env = std::getenv("LOSSYTS_MICRO_STORE_SPEEDUP")) {
    if (std::atof(env) > 0) floor = std::atof(env);
  }

  const TimeSeries series = MakeRandomWalkSeries(static_cast<size_t>(points));
  bool ok = true;

  auto pmc = MakeStore("PMC", series, reps, "PMC");
  auto gorilla = MakeStore("GORILLA", series, 1, nullptr);

  ReportPointReads("PMC", *pmc, 2000);
  ReportPointReads("GORILLA", *gorilla, 200);

  // The pushdown-vs-decode pair this bench exists to pin: MEAN over the
  // whole extent answered on the segment models vs by decoding every chunk.
  lossyts::store::AggregateOptions push_opts;
  push_opts.allow_pushdown = true;
  lossyts::store::AggregateOptions decode_opts;
  decode_opts.allow_pushdown = false;

  double push_ms = 0.0, decode_ms = 0.0;
  lossyts::store::AggregateResult push_result, decode_result;
  for (int r = 0; r < reps; ++r) {
    pmc->ClearChunkCache();
    Clock::time_point start = Clock::now();
    Result<lossyts::store::AggregateResult> a = lossyts::store::AggregateRange(
        *pmc, lossyts::store::AggregateKind::kMean, pmc->start_timestamp(),
        pmc->last_timestamp(), push_opts);
    double ms = MsSince(start);
    if (!a.ok()) {
      std::fprintf(stderr, "micro_store: pushdown MEAN failed\n");
      return 1;
    }
    if (r == 0 || ms < push_ms) push_ms = ms;
    push_result = *a;

    pmc->ClearChunkCache();
    start = Clock::now();
    Result<lossyts::store::AggregateResult> b = lossyts::store::AggregateRange(
        *pmc, lossyts::store::AggregateKind::kMean, pmc->start_timestamp(),
        pmc->last_timestamp(), decode_opts);
    ms = MsSince(start);
    if (!b.ok()) {
      std::fprintf(stderr, "micro_store: full-decode MEAN failed\n");
      return 1;
    }
    if (r == 0 || ms < decode_ms) decode_ms = ms;
    decode_result = *b;
  }

  if (push_result.decoded_chunks != 0) {
    std::fprintf(stderr,
                 "micro_store: pushdown MEAN decoded %zu chunks "
                 "(pushdown regression)\n",
                 push_result.decoded_chunks);
    ok = false;
  }
  const double scale =
      std::fmax(1.0, std::fmax(std::fabs(push_result.value),
                               std::fabs(decode_result.value)));
  if (!(std::fabs(push_result.value - decode_result.value) <= 1e-9 * scale) ||
      push_result.count != decode_result.count) {
    std::fprintf(stderr,
                 "micro_store: MEAN mismatch: pushdown %.17g (n=%llu) vs "
                 "decode %.17g (n=%llu)\n",
                 push_result.value,
                 static_cast<unsigned long long>(push_result.count),
                 decode_result.value,
                 static_cast<unsigned long long>(decode_result.count));
    ok = false;
  }

  const double speedup = decode_ms / push_ms;
  std::printf(
      "micro_store mean: pushdown %8.3fms (%zu segments)  decode %8.3fms  "
      "speedup %.1fx\n",
      push_ms, push_result.pushdown_chunks, decode_ms, speedup);
  if (speedup < floor) {
    std::fprintf(stderr,
                 "micro_store: speedup %.2fx breaches the %.1fx floor\n",
                 speedup, floor);
    ok = false;
  }

  // Range scan must be value-identical across jobs widths.
  Result<TimeSeries> scan1 =
      pmc->ReadRange(pmc->start_timestamp(), pmc->last_timestamp(), 1);
  Result<TimeSeries> scan4 =
      pmc->ReadRange(pmc->start_timestamp(), pmc->last_timestamp(), 4);
  if (!scan1.ok() || !scan4.ok() ||
      scan1->values() != scan4->values()) {
    std::fprintf(stderr,
                 "micro_store: ReadRange differs between jobs=1 and jobs=4\n");
    ok = false;
  }

  for (const char* codec : {"PMC", "GORILLA"}) {
    std::remove(StorePath(codec).c_str());
  }
  if (ok) {
    std::printf(
        "micro_store: OK (pushdown matches decode, floor %.1fx held)\n",
        floor);
  }
  return ok ? 0 : 1;
}
