// perfbench: end-to-end and per-layer benchmark of lossyts.
//
//   perfbench --workload grid|sweep|ingest|query --seed N --seconds S
//             --trace 0|1 [--out DIR] [--source-id ID]
//
// --trace 0 times set-up (several times, median) and runs the workload's
// closed loop untraced, then its self-checks, and prints the end-to-end
// metrics. --trace 1 runs the loop in untraced and traced quarters (the
// difference is the tracing overhead), then the four per-layer drivers under
// spans, and prints the per-layer metrics. Either way the last stdout line
// is one JSON object {correct, attempted, failed, metrics}; a fuller record
// (run metadata, every named figure, the per-layer self-time table) goes to
// DIR/results/, and the traced run's spans to DIR/traces/ as Chrome
// trace-event JSON.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void SummarizeOps(const std::vector<double>& latency_ms, double units,
                  double elapsed_s, MetricMap* out) {
  (*out)["throughput_per_s"] = {units / elapsed_s, "1/s"};
  (*out)["latency_p50_ms"] = {Quantile(latency_ms, 0.50), "ms"};
  (*out)["latency_p99_ms"] = {Quantile(latency_ms, 0.99), "ms"};
  (*out)["latency_samples"] = {static_cast<double>(latency_ms.size()),
                               "count"};
}

namespace {

// Set-up runs at least kMinSetups times and until kSetupSeconds have been
// spent (at most kMaxSetups), and the median is reported.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name, const RunConfig& c) {
  if (name == "grid") return MakeGridWorkload(c);
  if (name == "sweep") return MakeSweepWorkload(c);
  if (name == "ingest") return MakeIngestWorkload(c);
  if (name == "query") return MakeQueryWorkload(c);
  return nullptr;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string json = "{";
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (json.size() > 1) json += ", ";
    json += JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return json + "}";
}

std::string HostName() {
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) != 0) return "unknown";
  return host;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload grid|sweep|ingest|query "
                 "--seed N --seconds S --trace 0|1 [--out DIR] "
                 "[--source-id ID]\n");
    return 2;
  }
  const std::string tag = args.workload + "-s" + std::to_string(args.seed) +
                          "-t" + (args.trace ? "1" : "0") + "-p" +
                          std::to_string(getpid());
  RunConfig config;
  config.seed = args.seed;
  config.work_dir = args.out + "/work/" + tag;
  RemoveTree(config.work_dir);
  MakeDirs(config.work_dir);
  MakeDirs(args.out + "/results");

  std::unique_ptr<Workload> workload = Make(args.workload, config);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Ledger ledger;
  Outcome outcome;
  std::vector<double> setup_s;
  bool ready = true;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; ready && i < kMaxSetups &&
                  (i < kMinSetups || SecondsSince(setup_start) < kSetupSeconds);
       ++i) {
    if (i > 0) workload->Teardown();
    const Clock::time_point start = Clock::now();
    ready = workload->Setup(ledger);
    setup_s.push_back(SecondsSince(start));
  }

  MetricMap printed;
  Tracer tracer;
  std::vector<Tracer::LayerRow> layer_table;
  if (ready && !args.trace) {
    workload->Measure(args.seconds, true, nullptr, ledger, &outcome);
    // Peak memory of set-up and the measured loop, not of the self-checks.
    const double peak_rss_mb = PeakRssMb();
    workload->Verify(ledger, &outcome);
    printed = outcome.end_to_end;
    outcome.detail["latency_samples"] = printed["latency_samples"];
    outcome.detail["setup_runs"] = {static_cast<double>(setup_s.size()),
                                    "count"};
    printed.erase("latency_samples");
    printed["setup_s"] = {Quantile(setup_s, 0.5), "s"};
    printed["peak_rss_mb"] = {peak_rss_mb, "MB"};
  } else if (ready) {
    // The overhead figure: the loop runs in quarters — untraced, traced,
    // traced, untraced — so a linear drift (a growing catalog, a warming
    // machine) cancels out of the comparison.
    double plain = 0.0;
    double traced = 0.0;
    for (int quarter = 0; quarter < 4; ++quarter) {
      const bool on = quarter == 1 || quarter == 2;
      outcome = Outcome();
      workload->Measure(args.seconds / 4, false, on ? &tracer : nullptr,
                        ledger, &outcome);
      (on ? traced : plain) += outcome.end_to_end["throughput_per_s"].value / 2;
    }
    workload->Verify(ledger, &outcome);
    outcome.detail["untraced.throughput_per_s"] = {plain, "1/s"};
    outcome.detail["traced.throughput_per_s"] = {traced, "1/s"};
    printed["trace.overhead_pct"] = {
        traced > 0 ? (plain / traced - 1.0) * 100.0 : 0.0, "%"};
    workload->Teardown();
    GridLayers(config, ledger, tracer, &printed);
    SweepLayers(config, ledger, tracer, &printed);
    IngestLayers(config, ledger, tracer, &printed);
    QueryLayers(config, ledger, tracer, &printed);
    MakeDirs(args.out + "/traces");
    const std::string trace_path = args.out + "/traces/" + tag + ".json";
    if (!tracer.WriteChromeTrace(trace_path)) {
      ledger.Fail("cannot write " + trace_path);
    }
    layer_table = tracer.LayerTable();
    double self_total = 0.0;
    for (const auto& row : layer_table) self_total += row.self_s;
    std::fprintf(stderr, "%-10s %8s %10s %10s %7s\n", "layer", "spans",
                 "total_s", "self_s", "self%");
    for (const auto& row : layer_table) {
      std::fprintf(stderr, "%-10s %8llu %10.4f %10.4f %6.1f%%\n",
                   row.layer.c_str(),
                   static_cast<unsigned long long>(row.spans), row.total_s,
                   row.self_s, 100.0 * row.self_s / self_total);
    }
  }
  workload.reset();
  RemoveTree(config.work_dir);

  const bool correct = ready && ledger.failed() == 0;
  const uint64_t attempted = std::max<uint64_t>(ledger.attempted(), 1);
  const uint64_t failed = std::max<uint64_t>(ledger.failed(), ready ? 0 : 1);

  // The detailed record: metadata, every named figure, the layer table.
  const std::string record_path = args.out + "/results/" + tag + ".json";
  if (FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::string layers = "[";
    for (const auto& row : layer_table) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"layer\": %s, \"spans\": %llu, \"total_s\": %.9g, "
                    "\"self_s\": %.9g}",
                    layers.size() > 1 ? ", " : "",
                    JsonString(row.layer).c_str(),
                    static_cast<unsigned long long>(row.spans), row.total_s,
                    row.self_s);
      layers += buf;
    }
    layers += "]";
    std::string info = "{";
    for (const auto& [k, v] : outcome.info) {
      info += (info.size() > 1 ? ", " : "") + JsonString(k) + ": " +
              JsonString(v);
    }
    info += "}";
    std::fprintf(
        f,
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, \"trace\": "
        "%d,\n \"source_id\": %s, \"host\": %s, \"nproc\": %u, "
        "\"build_type\": %s, \"simd\": %s,\n \"info\": %s,\n"
        " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
        " \"metrics\": %s,\n \"detail\": %s,\n \"layers\": %s}\n",
        JsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.seconds,
        args.trace ? 1 : 0, JsonString(args.source_id).c_str(),
        JsonString(HostName()).c_str(), std::thread::hardware_concurrency(),
        JsonString(PERFBENCH_BUILD_TYPE).c_str(),
        JsonString(lossyts::simd::LevelName(lossyts::simd::ActiveLevel()))
            .c_str(),
        info.c_str(), correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), MetricsJson(printed).c_str(),
        MetricsJson(outcome.detail).c_str(), layers.c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(printed).c_str());
  return ready ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
