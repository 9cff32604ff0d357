// Engineering microbench for the serve daemon: mixed append/read traffic
// from concurrent clients over the Unix socket, reporting ingest throughput
// and read-latency percentiles. Self-checking — it exits nonzero when
//
//   * any acked append is lost or any append fails,
//   * the p99 read latency breaches its floor
//     (LOSSYTS_MICRO_SERVE_P99_MS, default 250 ms), or
//   * query results are not byte-identical across the --jobs values
//     (ingest-pool width must never change what a client reads back).
//
// Usage: micro_serve [--jobs 1,2] [--writers 2] [--batches 40] [--points 32]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace {

using Clock = std::chrono::steady_clock;
using lossyts::bench::MsSince;
using lossyts::bench::ParseIntFlag;
using lossyts::serve::Client;
using lossyts::serve::Daemon;
using lossyts::serve::DaemonOptions;

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t at = static_cast<size_t>(q * static_cast<double>(
                                                samples.size() - 1));
  return samples[at];
}

double ValueAt(int writer, size_t index) {
  return static_cast<double>(writer) * 1e4 +
         static_cast<double>(index) * 0.0625 - 3.0;
}

struct WorkloadResult {
  std::map<std::string, std::vector<double>> readback;
  std::vector<double> read_ms;
  double append_ops_per_s = 0.0;
  double points_per_s = 0.0;
  bool ok = true;
};

WorkloadResult RunWorkload(int jobs, int writers, int batches, int points) {
  WorkloadResult result;
  const std::string dir =
      "/tmp/lossyts_micro_serve_j" + std::to_string(jobs);
  {
    const std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0) std::abort();
  }
  DaemonOptions options;
  options.dir = dir;
  options.shards = 2;
  options.jobs = jobs;
  options.shard.codecs = {"GORILLA"};
  // Skips the checkpoint fsyncs only; every append is still fsync'd to the
  // WAL before its ack.
  options.shard.sync = false;
  auto daemon = Daemon::Start(options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "micro_serve: daemon start failed: %s\n",
                 daemon.status().ToString().c_str());
    result.ok = false;
    return result;
  }

  std::vector<std::thread> threads;
  std::vector<int> append_failures(static_cast<size_t>(writers), 0);
  std::atomic<bool> writers_done{false};
  const Clock::time_point ingest_start = Clock::now();
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto client = Client::Connect((*daemon)->socket_path());
      if (!client.ok()) {
        append_failures[static_cast<size_t>(w)] = batches;
        return;
      }
      const std::string series = "bench-" + std::to_string(w);
      for (int b = 0; b < batches; ++b) {
        std::vector<double> values;
        for (int i = 0; i < points; ++i) {
          values.push_back(ValueAt(w, static_cast<size_t>(b * points + i)));
        }
        if (!(*client)
                 ->Append(series, static_cast<int64_t>(b) * points * 60, 60,
                          values)
                 .ok()) {
          ++append_failures[static_cast<size_t>(w)];
        }
      }
    });
  }
  // One roaming reader supplies the "mixed" in mixed traffic while the
  // writers are live; its latencies count toward the percentile pool.
  std::vector<double> live_read_ms;
  threads.emplace_back([&] {
    auto client = Client::Connect((*daemon)->socket_path());
    if (!client.ok()) return;
    int w = 0;
    while (!writers_done.load()) {
      const Clock::time_point start = Clock::now();
      auto read = (*client)->ReadRange("bench-" + std::to_string(w), 0,
                                       1LL << 40);
      if (read.ok() || read.status().code() == lossyts::StatusCode::kNotFound) {
        live_read_ms.push_back(MsSince(start));
      }
      w = (w + 1) % writers;
    }
  });
  for (int w = 0; w < writers; ++w) threads[static_cast<size_t>(w)].join();
  const double ingest_s = MsSince(ingest_start) / 1e3;
  writers_done.store(true);
  threads.back().join();

  const uint64_t total_ops =
      static_cast<uint64_t>(writers) * static_cast<uint64_t>(batches);
  result.append_ops_per_s = static_cast<double>(total_ops) / ingest_s;
  result.points_per_s = result.append_ops_per_s * points;
  for (int failures : append_failures) {
    if (failures > 0) {
      std::fprintf(stderr, "micro_serve: %d append failures\n", failures);
      result.ok = false;
    }
  }

  // Steady-state read phase: a fixed request count so the percentile pool
  // is comparable run to run.
  {
    auto client = Client::Connect((*daemon)->socket_path());
    if (!client.ok()) {
      result.ok = false;
      return result;
    }
    constexpr int kReads = 400;
    for (int i = 0; i < kReads; ++i) {
      const std::string series = "bench-" + std::to_string(i % writers);
      const Clock::time_point start = Clock::now();
      auto read = (*client)->ReadRange(series, 0, 1LL << 40);
      if (!read.ok()) {
        std::fprintf(stderr, "micro_serve: read failed: %s\n",
                     read.status().ToString().c_str());
        result.ok = false;
        break;
      }
      result.read_ms.push_back(MsSince(start));
    }
    result.read_ms.insert(result.read_ms.end(), live_read_ms.begin(),
                          live_read_ms.end());
    // The readback pool for the cross-jobs identity check.
    for (int w = 0; w < writers; ++w) {
      const std::string series = "bench-" + std::to_string(w);
      auto read = (*client)->ReadRange(series, 0, 1LL << 40);
      if (!read.ok()) {
        result.ok = false;
        continue;
      }
      result.readback[series] = read->values();
      const size_t expected =
          static_cast<size_t>(batches) * static_cast<size_t>(points);
      if (read->values().size() != expected) {
        std::fprintf(stderr, "micro_serve: %s has %zu points, expected %zu\n",
                     series.c_str(), read->values().size(), expected);
        result.ok = false;
      }
    }
    auto stats = (*client)->Stats();
    if (!stats.ok() || stats->failed_shards != 0) {
      std::fprintf(stderr, "micro_serve: unhealthy daemon after workload\n");
      result.ok = false;
    }
  }
  if (!(*daemon)->Stop().ok()) result.ok = false;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> jobs_values = {1, 2};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs_values.clear();
      for (const char* p = argv[i + 1]; *p != '\0'; ++p) {
        if (*p >= '0' && *p <= '9') jobs_values.push_back(*p - '0');
      }
    }
  }
  const int writers = ParseIntFlag(argc, argv, "--writers", 2);
  const int batches = ParseIntFlag(argc, argv, "--batches", 40);
  const int points = ParseIntFlag(argc, argv, "--points", 32);
  double p99_floor_ms = 250.0;
  if (const char* env = std::getenv("LOSSYTS_MICRO_SERVE_P99_MS")) {
    if (std::atof(env) > 0) p99_floor_ms = std::atof(env);
  }

  bool ok = true;
  std::map<std::string, std::vector<double>> reference;
  int reference_jobs = 0;
  for (const int jobs : jobs_values) {
    WorkloadResult result = RunWorkload(jobs, writers, batches, points);
    ok = ok && result.ok;
    const double p50 = Percentile(result.read_ms, 0.50);
    const double p99 = Percentile(result.read_ms, 0.99);
    std::printf(
        "micro_serve jobs=%d  appends %.0f ops/s (%.0f points/s)  "
        "reads n=%zu p50=%.3fms p99=%.3fms\n",
        jobs, result.append_ops_per_s, result.points_per_s,
        result.read_ms.size(), p50, p99);
    if (p99 > p99_floor_ms) {
      std::fprintf(stderr,
                   "micro_serve: p99 read latency %.3fms breaches the "
                   "%.0fms floor\n",
                   p99, p99_floor_ms);
      ok = false;
    }
    if (reference.empty()) {
      reference = std::move(result.readback);
      reference_jobs = jobs;
    } else if (result.readback != reference) {
      std::fprintf(stderr,
                   "micro_serve: query results differ between --jobs %d and "
                   "--jobs %d\n",
                   reference_jobs, jobs);
      ok = false;
    }
  }
  if (ok) std::printf("micro_serve: OK (results identical across jobs)\n");
  return ok ? 0 : 1;
}
