// Engineering microbench for the grouped query layer: one directory of
// store pairs, the same aggregate query answered by query::QueryStoreDir
// (segment pushdown + thread-pool fan-out) and by a naive per-series
// full-decode loop. Self-checking — it exits nonzero when
//
//   * the fast path's aggregates diverge from the naive path's,
//   * metric-query output is not byte-identical across --jobs values, or
//   * the speedup over the naive loop falls below the acceptance floor
//     (LOSSYTS_MICRO_QUERY_SPEEDUP, default 3x).
//
// Usage: micro_query [--series N] [--points N] [--jobs N] [--reps N]
//
// PMC on a smooth signal keeps chunks segment-dense, so the aggregate-only
// query never decodes a chunk; the naive loop decodes everything — the gap
// this bench pins is exactly the pushdown win the query layer exists for.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "query/query.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using Clock = std::chrono::steady_clock;
using lossyts::bench::MsSince;
using lossyts::bench::ParseIntFlag;
using lossyts::Result;
using lossyts::Status;
using lossyts::TimeSeries;

/// Smooth slow sine with a per-series phase: PMC at a loose bound collapses
/// it to a handful of segments per chunk, which is what gives the pushdown
/// path something to win with.
TimeSeries MakeSeries(int index, int points) {
  std::vector<double> values(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    values[static_cast<size_t>(i)] =
        100.0 + 20.0 * std::sin((static_cast<double>(i) / 512.0) +
                                static_cast<double>(index));
  }
  return TimeSeries(0, 60, std::move(values));
}

Status BuildStoreDir(const std::string& dir, int series, int points) {
  {
    const std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
    if (std::system(cmd.c_str()) != 0) {
      return Status::IoError("cannot reset " + dir);
    }
  }
  lossyts::store::StoreOptions options;
  options.codecs = {"PMC"};
  options.error_bound = 0.5;
  for (int s = 0; s < series; ++s) {
    const TimeSeries actual = MakeSeries(s, points);
    TimeSeries predicted = actual;
    for (const std::string& suffix : {std::string(""), std::string(".pred")}) {
      char name[64];
      std::snprintf(name, sizeof(name), "g%d_s%d%s.lts", s % 4, s,
                    suffix.c_str());
      Result<std::unique_ptr<lossyts::store::StoreWriter>> writer =
          lossyts::store::StoreWriter::Create(dir + "/" + name, options);
      if (!writer.ok()) return writer.status();
      if (Status st = (*writer)->Append(suffix.empty() ? actual : predicted);
          !st.ok()) {
        return st;
      }
      if (Status st = (*writer)->Finish(); !st.ok()) return st;
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const int series = ParseIntFlag(argc, argv, "--series", 16);
  const int points = ParseIntFlag(argc, argv, "--points", 1 << 16);
  const int jobs = ParseIntFlag(argc, argv, "--jobs", 4);
  const int reps = ParseIntFlag(argc, argv, "--reps", 5);
  double speedup_floor = 3.0;
  if (const char* env = std::getenv("LOSSYTS_MICRO_QUERY_SPEEDUP")) {
    if (std::atof(env) > 0) speedup_floor = std::atof(env);
  }

  const std::string dir = "/tmp/lossyts_micro_query";
  if (Status s = BuildStoreDir(dir, series, points); !s.ok()) {
    std::fprintf(stderr, "micro_query: build failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  bool ok = true;

  // Fast path: aggregate-only grouped query (pushdown + fan-out). Best of
  // `reps` so a cold file cache does not decide the verdict.
  lossyts::query::QueryOptions agg_options;
  agg_options.aggregates = {"MIN", "MAX", "MEAN", "COUNT"};
  agg_options.group_by = lossyts::query::GroupMode::kAll;
  agg_options.jobs = jobs;
  double fast_ms = 0.0;
  lossyts::query::QueryResult fast;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    Result<lossyts::query::QueryResult> result =
        lossyts::query::QueryStoreDir(dir, agg_options);
    const double ms = MsSince(start);
    if (!result.ok()) {
      std::fprintf(stderr, "micro_query: query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (r == 0 || ms < fast_ms) fast_ms = ms;
    fast = std::move(*result);
  }
  if (fast.decoded_chunks != 0) {
    std::fprintf(stderr,
                 "micro_query: aggregate-only query decoded %llu chunks "
                 "(pushdown regression)\n",
                 static_cast<unsigned long long>(fast.decoded_chunks));
    ok = false;
  }

  // Naive path: open every store, decode everything single-threaded, fold
  // the same aggregates by hand.
  double naive_ms = 0.0;
  double naive_min = 0.0, naive_max = 0.0, naive_sum = 0.0;
  uint64_t naive_count = 0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    naive_min = 0.0;
    naive_max = 0.0;
    naive_sum = 0.0;
    naive_count = 0;
    bool first = true;
    for (int s = 0; s < series; ++s) {
      char name[64];
      std::snprintf(name, sizeof(name), "g%d_s%d.lts", s % 4, s);
      Result<std::unique_ptr<lossyts::store::StoreReader>> reader =
          lossyts::store::StoreReader::Open(dir + "/" + name);
      if (!reader.ok()) {
        std::fprintf(stderr, "micro_query: open failed: %s\n",
                     reader.status().ToString().c_str());
        return 1;
      }
      Result<TimeSeries> all = (*reader)->ReadAll();
      if (!all.ok()) {
        std::fprintf(stderr, "micro_query: decode failed: %s\n",
                     all.status().ToString().c_str());
        return 1;
      }
      for (double v : all->values()) {
        if (first || v < naive_min) naive_min = v;
        if (first || v > naive_max) naive_max = v;
        first = false;
        naive_sum += v;
        ++naive_count;
      }
    }
    const double ms = MsSince(start);
    if (r == 0 || ms < naive_ms) naive_ms = ms;
  }

  // Cross-check: both paths computed the same catalog-wide aggregates.
  if (fast.rows.size() != 1) {
    std::fprintf(stderr, "micro_query: expected 1 group row, got %zu\n",
                 fast.rows.size());
    return 1;
  }
  const std::vector<double>& got = fast.rows[0].aggregates;
  const double want[] = {naive_min, naive_max,
                         naive_sum / static_cast<double>(naive_count),
                         static_cast<double>(naive_count)};
  const char* names[] = {"MIN", "MAX", "MEAN", "COUNT"};
  for (size_t i = 0; i < 4; ++i) {
    const double scale = std::max({1.0, std::abs(got[i]), std::abs(want[i])});
    if (!(std::abs(got[i] - want[i]) <= 1e-9 * scale)) {
      std::fprintf(stderr, "micro_query: %s mismatch: fast %.17g naive %.17g\n",
                   names[i], got[i], want[i]);
      ok = false;
    }
  }

  // Determinism: the grouped metric query formats byte-identically across
  // jobs widths.
  lossyts::query::QueryOptions metric_options;
  metric_options.metrics = {"mae", "rmse", "smape", "bias"};
  metric_options.group_by = lossyts::query::GroupMode::kPrefix;
  std::string reference;
  for (int j : {1, jobs}) {
    metric_options.jobs = j;
    Result<lossyts::query::QueryResult> result =
        lossyts::query::QueryStoreDir(dir, metric_options);
    if (!result.ok()) {
      std::fprintf(stderr, "micro_query: metric query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const std::string text = lossyts::query::FormatQueryResult(*result);
    if (reference.empty()) {
      reference = text;
    } else if (text != reference) {
      std::fprintf(stderr,
                   "micro_query: metric output differs between --jobs 1 and "
                   "--jobs %d\n",
                   j);
      ok = false;
    }
  }

  const double speedup = naive_ms / fast_ms;
  std::printf(
      "micro_query series=%d points=%d jobs=%d  pushdown %.3fms  "
      "naive %.3fms  speedup %.1fx (%llu chunks pushed down)\n",
      series, points, jobs, fast_ms, naive_ms, speedup,
      static_cast<unsigned long long>(fast.pushdown_chunks));
  if (speedup < speedup_floor) {
    std::fprintf(stderr,
                 "micro_query: speedup %.2fx breaches the %.1fx floor\n",
                 speedup, speedup_floor);
    ok = false;
  }
  if (ok) std::printf("micro_query: OK (fast path matches naive decode)\n");
  return ok ? 0 : 1;
}
