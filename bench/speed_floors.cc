// Self-relative speed floors: each row times a fast path against its own
// baseline in this process on this machine, so it holds on any host, unlike
// a wall-clock budget. Correctness is not checked here; the ctest cases own
// it. Exits 1 if any floor breaks or any timed operation fails.
//
//   GORILLA, CHIMP  round trip >= 4x the bit-at-a-time reference coders
//                   (oracles/gorilla_chimp.h), on the 2^17-point walk;
//   store MEAN      pushdown >= 5x full decode, one PMC store of the
//                   2^16-point walk;
//   query           aggregate-only QueryStoreDir at jobs 4 >= 3x a naive
//                   open-decode-fold loop, 16 PMC store pairs;
//   serve p99       read latency <= 250 ms at daemon jobs 1 and 2, under
//                   mixed append/read traffic over the socket;
//   stream PMC, SWING  streaming ingest >= 0.5x batch compression, drift
//                   corpus (bench_common.h).
//
// Usage: speed_floors   (no flags; everything it writes lives in one
// mkdtemp directory that it removes before exiting)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "compress/chimp.h"
#include "compress/gorilla.h"
#include "oracles/gorilla_chimp.h"
#include "oracles/walk.h"
#include "query/query.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using namespace lossyts;

constexpr double kCodecSpeedup = 4.0;
constexpr double kPushdownSpeedup = 5.0;
constexpr double kQuerySpeedup = 3.0;
constexpr double kServeP99Ms = 250.0;
constexpr double kStreamRatio = 0.5;

// Timing: kPairs interleaved pairs of one baseline call and one candidate
// call. A noise burst then hits both sides of a pair, and interference only
// ever slows a call down, so the best pair's ratio is the robust estimate.
constexpr int kPairs = 10;

std::filesystem::path g_scratch;

void RemoveScratch() {
  std::error_code ignored;
  std::filesystem::remove_all(g_scratch, ignored);
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "speed_floors: %s\n", what.c_str());
  RemoveScratch();
  std::exit(1);
}

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

template <typename T>
T Require(Result<T> r, const std::string& what) {
  Require(r.status(), what);
  return std::move(*r);
}

template <typename Fn>
double Seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Best over kPairs interleaved pairs of baseline seconds divided by
// candidate seconds: how many times faster the candidate runs.
template <typename Baseline, typename Candidate>
double BestSpeedup(Baseline&& baseline, Candidate&& candidate) {
  double best = 0.0;
  for (int p = 0; p < kPairs; ++p) {
    const double base = Seconds(baseline);
    best = std::max(best, base / Seconds(candidate));
  }
  return best;
}

// Prints one row; it holds when `measured` reaches `bound` (is at most
// `bound` for a latency ceiling).
bool Floor(const std::string& name, double measured, double bound,
           bool at_most = false) {
  const bool ok = at_most ? measured <= bound : measured >= bound;
  std::printf("%-26s %10.2f  %s %7.2f  %s\n", name.c_str(), measured,
              at_most ? "ceiling" : "floor  ", bound, ok ? "ok" : "FAIL");
  return ok;
}

template <typename Codec, typename RefEncode, typename RefDecode>
bool CodecFloor(const char* name, const TimeSeries& walk, RefEncode encode,
                RefDecode decode) {
  const Codec codec{};
  const double speedup = BestSpeedup(
      [&] { decode(encode(walk), walk.size()); },
      [&] {
        Require(codec.Decompress(Require(codec.Compress(walk, 0.05), name)),
                name);
      });
  return Floor(std::string(name) + " round trip x", speedup, kCodecSpeedup);
}

bool PushdownFloor(const std::string& dir) {
  const std::string path = dir + "/walk.lts";
  store::StoreOptions options;
  options.error_bound = 0.05;
  options.codecs = {"PMC"};
  auto writer = Require(store::StoreWriter::Create(path, options), path);
  Require(writer->Append(oracles::RandomWalk(size_t{1} << 16)), path);
  Require(writer->Finish(), path);
  auto reader = Require(store::StoreReader::Open(path), path);
  auto mean = [&](bool pushdown) {
    store::AggregateOptions opts;
    opts.allow_pushdown = pushdown;
    reader->ClearChunkCache();
    Require(store::AggregateRange(*reader, store::AggregateKind::kMean,
                                  reader->start_timestamp(),
                                  reader->last_timestamp(), opts),
            "store MEAN");
  };
  return Floor("store MEAN pushdown x",
               BestSpeedup([&] { mean(false); }, [&] { mean(true); }),
               kPushdownSpeedup);
}

bool QueryFloor(const std::string& dir) {
  constexpr int kSeries = 16;
  constexpr int kPoints = 1 << 16;
  // A slow sine per series: PMC at a loose bound keeps few segments per
  // chunk, so the aggregate-only query answers from the segment models.
  store::StoreOptions options;
  options.codecs = {"PMC"};
  options.error_bound = 0.5;
  std::vector<std::string> actual_paths;
  for (int s = 0; s < kSeries; ++s) {
    std::vector<double> values(kPoints);
    for (int i = 0; i < kPoints; ++i) {
      values[i] = 100.0 + 20.0 * std::sin(i / 512.0 + s);
    }
    const TimeSeries series(0, 60, std::move(values));
    const std::string stem =
        dir + "/g" + std::to_string(s % 4) + "_s" + std::to_string(s);
    actual_paths.push_back(stem + ".lts");
    for (const std::string& path : {stem + ".lts", stem + ".pred.lts"}) {
      auto writer = Require(store::StoreWriter::Create(path, options), path);
      Require(writer->Append(series), path);
      Require(writer->Finish(), path);
    }
  }
  query::QueryOptions agg;
  agg.aggregates = {"MIN", "MAX", "MEAN", "COUNT"};
  agg.group_by = query::GroupMode::kAll;
  agg.jobs = 4;
  volatile double sink = 0.0;  // Keeps the naive fold from being elided.
  auto naive = [&] {
    double lo = INFINITY, hi = -INFINITY, sum = 0.0;
    size_t count = 0;
    for (const std::string& path : actual_paths) {
      auto reader = Require(store::StoreReader::Open(path), path);
      const TimeSeries all = Require(reader->ReadAll(), path);
      for (double v : all.values()) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
        ++count;
      }
    }
    sink = lo + hi + sum / static_cast<double>(count);
  };
  return Floor("query pushdown x",
               BestSpeedup(naive,
                           [&] {
                             Require(query::QueryStoreDir(dir, agg),
                                     "query");
                           }),
               kQuerySpeedup);
}

// Two writers append 40 batches of 32 points each while a roaming reader
// reads their series; then 400 reads at rest. p99 is over every read.
bool ServeFloor(const std::string& dir, int jobs) {
  constexpr int kWriters = 2;
  constexpr int kBatches = 40;
  constexpr int kPoints = 32;
  constexpr int kRestReads = 400;
  serve::DaemonOptions options;
  options.dir = dir + "/serve_j" + std::to_string(jobs);
  options.shards = 2;
  options.jobs = jobs;
  options.shard.codecs = {"GORILLA"};
  // Skips the checkpoint fsyncs only; every append is still fsync'd to the
  // WAL before its ack.
  options.shard.sync = false;
  auto daemon = Require(serve::Daemon::Start(options), "daemon start");
  auto connect = [&] {
    return Require(serve::Client::Connect(daemon->socket_path()), "connect");
  };
  auto series = [](int w) { return "bench-" + std::to_string(w); };

  std::vector<double> read_ms;
  std::atomic<bool> writers_done{false};
  std::thread reader([&] {
    auto client = connect();
    for (int w = 0; !writers_done.load(); w = (w + 1) % kWriters) {
      Status status;
      const double s = Seconds([&] {
        status = client->ReadRange(series(w), 0, 1LL << 40).status();
      });
      // A series no writer has reached yet is NotFound, still a served read.
      if (status.ok() || status.code() == StatusCode::kNotFound) {
        read_ms.push_back(s * 1e3);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = connect();
      for (int b = 0; b < kBatches; ++b) {
        std::vector<double> values;
        for (int i = 0; i < kPoints; ++i) {
          values.push_back(w * 1e4 + (b * kPoints + i) * 0.0625 - 3.0);
        }
        Require(client->Append(series(w), int64_t{b} * kPoints * 60, 60,
                               values),
                "append");
      }
    });
  }
  for (std::thread& t : writers) t.join();
  writers_done.store(true);
  reader.join();
  auto client = connect();
  for (int i = 0; i < kRestReads; ++i) {
    read_ms.push_back(1e3 * Seconds([&] {
                        Require(client->ReadRange(series(i % kWriters), 0,
                                                  1LL << 40),
                                "read");
                      }));
  }
  Require(daemon->Stop(), "daemon stop");
  std::sort(read_ms.begin(), read_ms.end());
  const double p99 = read_ms[static_cast<size_t>(
      0.99 * static_cast<double>(read_ms.size() - 1))];
  return Floor("serve p99 read ms, jobs " + std::to_string(jobs), p99,
               kServeP99Ms, /*at_most=*/true);
}

bool StreamFloor(const std::string& codec,
                 const std::vector<bench::DriftCase>& corpus) {
  auto batch = Require(compress::MakeCompressor(codec), codec);
  auto streaming = Require(stream::MakeStreamingCompressor(codec), codec);
  auto batch_pass = [&] {
    for (const bench::DriftCase& c : corpus) {
      Require(batch->Compress(c.series, 0.05), codec);
    }
  };
  auto stream_pass = [&] {
    for (const bench::DriftCase& c : corpus) {
      Require(streaming->Open(c.series.start_timestamp(),
                              c.series.interval_seconds(), 0.05),
              codec);
      for (double v : c.series.values()) Require(streaming->Append(v), codec);
      Require(streaming->Flush(), codec);
    }
  };
  return Floor("stream " + codec + " ingest / batch",
               BestSpeedup(batch_pass, stream_pass), kStreamRatio);
}

}  // namespace

int main() {
  char dir_template[] = "/tmp/lossyts_speed_floors_XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    std::perror("speed_floors: mkdtemp");
    return 1;
  }
  g_scratch = dir_template;
  const std::string dir = g_scratch.string();
  std::filesystem::create_directory(g_scratch / "query");

  const TimeSeries walk = oracles::RandomWalk(size_t{1} << 17);
  bool ok = true;
  ok &= CodecFloor<compress::GorillaCompressor>(
      "GORILLA", walk, oracles::ReferenceGorillaEncode,
      oracles::ReferenceGorillaDecode);
  ok &= CodecFloor<compress::ChimpCompressor>("CHIMP", walk,
                                              oracles::ReferenceChimpEncode,
                                              oracles::ReferenceChimpDecode);
  ok &= PushdownFloor(dir);
  ok &= QueryFloor(dir + "/query");
  ok &= ServeFloor(dir, 1);
  ok &= ServeFloor(dir, 2);
  const std::vector<bench::DriftCase> corpus = bench::MakeDriftCorpus();
  for (const std::string& codec : stream::StreamingCompressorNames()) {
    ok &= StreamFloor(codec, corpus);
  }
  RemoveScratch();
  std::printf("speed_floors: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
