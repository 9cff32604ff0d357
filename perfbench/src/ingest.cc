// `ingest`: the durable write path. An in-process serve::Daemon (2 shards,
// jobs=2, default trial codecs, stream_codec=PMC, sync=true: every append is
// fsync'd before it is acked) takes fixed-size batches from two writer
// connections replaying the six datasets, while a third connection reads
// tail windows. The small WAL threshold makes checkpoints to .lts cycle many
// times per run. Latency is the host's disk, not a dedicated device's.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "store/reader.h"
#include "store/writer.h"
#include "stream/streaming_compressor.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBatchPoints = 64;
constexpr int32_t kInterval = 60;
constexpr uint64_t kFlushWalBytes = 32u << 10;
constexpr int kWriters = 2;
constexpr size_t kTailWindow = 256;
/// Appends per writer per second of --seconds. A run does a fixed amount of
/// work sized from --seconds at this nominal rate (about a 4-vCPU KVM
/// guest's), so the catalog it builds — and with it the memory and the
/// checkpoint sizes — is the same in every run.
constexpr size_t kNominalAppendsPerSecond = 700;

std::vector<std::vector<double>> ReplaySeries(Ledger& ledger) {
  std::vector<std::vector<double>> out;
  auto datasets = lossyts::data::MakeAllDatasets();  // length_fraction 0.125.
  if (!datasets.ok()) {
    ledger.Fail("ingest setup: " + datasets.status().ToString());
    return out;
  }
  for (const auto& d : *datasets) out.push_back(d.series.values());
  return out;
}

std::string SeriesName(size_t dataset, uint64_t generation) {
  return lossyts::data::DatasetNames()[dataset] + "-g" +
         std::to_string(generation);
}

/// Replay cursor over one dataset: batches walk the series; at its end a
/// new generation (a new series) starts, which bounds every series' history
/// and so the cost of re-encoding it at checkpoints.
struct Cursor {
  size_t dataset = 0;
  uint64_t generation = 0;
  size_t position = 0;

  std::string Series() const { return SeriesName(dataset, generation); }
  /// Next batch of values; advances the cursor.
  std::vector<double> Next(const std::vector<double>& values,
                           int64_t* first_timestamp) {
    if (position >= values.size()) {
      ++generation;
      position = 0;
    }
    const size_t end = std::min(values.size(), position + kBatchPoints);
    *first_timestamp = static_cast<int64_t>(position) * kInterval;
    std::vector<double> batch(values.begin() + position, values.begin() + end);
    position = end;
    return batch;
  }
};

lossyts::serve::DaemonOptions DaemonFor(const std::string& dir) {
  lossyts::serve::DaemonOptions options;
  options.dir = dir;
  options.socket_path = dir + "/s.sock";
  options.shards = 2;
  options.jobs = 2;
  options.shard.stream_codec = "PMC";
  options.shard.sync = true;
  options.shard.flush_wal_bytes = kFlushWalBytes;
  return options;
}

class IngestWorkload : public Workload {
 public:
  explicit IngestWorkload(const RunConfig& config) : config_(config) {}
  ~IngestWorkload() override { Teardown(); }

  bool Setup(Ledger& ledger) override {
    values_ = ReplaySeries(ledger);
    if (values_.empty()) return false;
    dir_ = config_.work_dir + "/catalog" + std::to_string(setups_++);
    RemoveTree(dir_);
    MakeDirs(dir_);
    auto daemon = lossyts::serve::Daemon::Start(DaemonFor(dir_));
    if (!daemon.ok()) {
      ledger.Fail("ingest: daemon start: " + daemon.status().ToString());
      return false;
    }
    daemon_ = std::move(*daemon);
    cursors_.clear();
    for (size_t d = 0; d < values_.size(); ++d) cursors_.push_back({d, 0, 0});
    acked_.clear();
    return true;
  }

  void Teardown() override {
    if (daemon_) daemon_->Stop();
    daemon_.reset();
    if (!dir_.empty()) RemoveTree(dir_);
  }

  void Measure(double seconds, bool, Tracer* tracer, Ledger& ledger,
               Outcome* out) override {
    const size_t quota =
        static_cast<size_t>(seconds * kNominalAppendsPerSecond) + 1;
    std::vector<std::vector<double>> append_ms(kWriters);
    std::vector<double> read_ms;
    std::vector<uint64_t> points(kWriters, 0);
    std::atomic<int> writing{kWriters};
    const Clock::time_point start = Clock::now();

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        auto client = lossyts::serve::Client::Connect(daemon_->socket_path());
        if (!client.ok()) {
          ledger.Fail("ingest: writer connect: " + client.status().ToString());
          --writing;
          return;
        }
        // Writer w owns datasets w, w+2, w+4 and round-robins over them,
        // starting at one the seed picks.
        for (size_t n = 0; n < quota; ++n) {
          Cursor& cursor = cursors_[static_cast<size_t>(w) +
                                    kWriters * ((n + config_.seed) % 3)];
          int64_t ts = 0;
          std::vector<double> batch = cursor.Next(values_[cursor.dataset], &ts);
          const std::string series = cursor.Series();
          Tracer::Scope span(tracer, "serve", "serve.client_append");
          lossyts::Status s = (*client)->Append(series, ts, kInterval, batch);
          append_ms[static_cast<size_t>(w)].push_back(span.End() * 1e3);
          if (!s.ok()) {
            ledger.Fail("ingest: append " + series + ": " + s.ToString());
            continue;
          }
          ledger.Attempt();
          points[static_cast<size_t>(w)] += batch.size();
          std::lock_guard<std::mutex> lock(mu_);
          acked_[series] = {cursor.dataset, cursor.position};
        }
        --writing;
      });
    }
    threads.emplace_back([&] {
      auto client = lossyts::serve::Client::Connect(daemon_->socket_path());
      if (!client.ok()) {
        ledger.Fail("ingest: reader connect: " + client.status().ToString());
        return;
      }
      // Closed loop with a 1 ms think time, so the reader does not compete
      // with the writers for the shard mutexes on every cycle.
      std::mt19937_64 rng(config_.seed);
      for (; writing.load() > 0;
           std::this_thread::sleep_for(std::chrono::milliseconds(1))) {
        std::string series;
        std::pair<size_t, size_t> extent;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (acked_.empty()) continue;
          auto it = acked_.begin();
          std::advance(it, rng() % acked_.size());
          series = it->first;
          extent = it->second;
        }
        const size_t end = extent.second;
        const size_t begin = end > kTailWindow ? end - kTailWindow : 0;
        Tracer::Scope span(tracer, "serve", "serve.client_read");
        auto read = (*client)->ReadRange(
            series, static_cast<int64_t>(begin) * kInterval,
            static_cast<int64_t>(end - 1) * kInterval);
        read_ms.push_back(span.End() * 1e3);
        const std::vector<double>& v = values_[extent.first];
        ledger.Check(read.ok() && read->values() ==
                                      std::vector<double>(v.begin() + begin,
                                                          v.begin() + end),
                     "ingest: tail read of " + series + " differs");
      }
    });
    for (auto& t : threads) t.join();
    const double elapsed = SecondsSince(start);

    std::vector<double> all_ms;
    for (const auto& v : append_ms) {
      all_ms.insert(all_ms.end(), v.begin(), v.end());
    }
    double total_points = 0.0;
    for (uint64_t p : points) total_points += static_cast<double>(p);
    SummarizeOps(all_ms, total_points, elapsed, &out->end_to_end);
    out->detail["append.points_per_s"] = out->end_to_end["throughput_per_s"];
    out->detail["append.p50_ms"] = out->end_to_end["latency_p50_ms"];
    out->detail["append.p99_ms"] = out->end_to_end["latency_p99_ms"];
    out->detail["append.ops"] = {static_cast<double>(all_ms.size()), "count"};
    out->detail["read.p50_ms"] = {Quantile(read_ms, 0.5), "ms"};
    out->detail["read.ops"] = {static_cast<double>(read_ms.size()), "count"};
    out->info.emplace("ingest.jobs", "2");
    out->info.emplace("ingest.flush_policy",
                      "sync=true: WAL fsync before every ack (group commit)");
  }

  // Every acked append must read back exactly, no shard may have failed,
  // and after the drain every series' checkpoint store must hold exactly
  // the acked points within the store's error bound.
  void Verify(Ledger& ledger, Outcome* out) override {
    auto client = lossyts::serve::Client::Connect(daemon_->socket_path());
    if (!client.ok()) {
      ledger.Fail("ingest: verify connect: " + client.status().ToString());
      return;
    }
    for (const auto& [series, extent] : AllSeries()) {
      const std::vector<double>& v = values_[extent.first];
      const std::vector<double> acked(v.begin(), v.begin() + extent.second);
      auto read = (*client)->ReadRange(series, 0, INT64_MAX / 2);
      ledger.Check(read.ok() && read->values() == acked,
                   "ingest: acked appends of " + series + " do not read back");
    }
    auto stats = (*client)->Stats();
    ledger.Check(stats.ok() && stats->failed_shards == 0,
                 "ingest: a shard failed");
    if (stats.ok()) {
      out->detail["serve.rejected"] = {static_cast<double>(stats->rejected),
                                       "count"};
      out->detail["serve.checkpoints"] = {static_cast<double>(stats->flushes),
                                          "count"};
    }
    client->reset();
    ledger.Check(daemon_->Stop().ok(), "ingest: daemon drain failed");

    // Stored bytes per point are averaged over the six datasets, so the
    // figure does not depend on how the two writers' rates split.
    const double eb = lossyts::serve::ShardOptions().error_bound;
    std::vector<double> bytes(values_.size(), 0.0);
    std::vector<double> points(values_.size(), 0.0);
    for (const auto& [series, extent] : AllSeries()) {
      const std::vector<double>& v = values_[extent.first];
      bool ok = false;
      for (int shard = 0; shard < 2 && !ok; ++shard) {
        const std::string path =
            dir_ + "/shard-" + std::to_string(shard) + "/" + series + ".lts";
        if (FileSize(path) == 0) continue;
        bytes[extent.first] += static_cast<double>(FileSize(path));
        points[extent.first] += static_cast<double>(extent.second);
        auto reader = lossyts::store::StoreReader::Open(path);
        if (!reader.ok()) break;
        auto all = (*reader)->ReadAll();
        if (!all.ok() || all->size() != extent.second) break;
        ok = true;
        for (size_t i = 0; i < all->size() && ok; ++i) {
          ok = std::fabs((*all)[i] - v[i]) <= eb * std::fabs(v[i]) * (1 + 1e-9);
        }
      }
      ledger.Check(ok, "ingest: checkpoint store of " + series +
                           " does not hold its acked points within eb");
    }
    double per_point = 0.0;
    for (size_t d = 0; d < bytes.size(); ++d) {
      per_point += points[d] > 0 ? bytes[d] / points[d] : 0.0;
    }
    out->end_to_end["stored_bytes_per_point"] = {
        per_point / static_cast<double>(bytes.size()), "B"};
  }

 private:
  /// Every series ever acked (older generations are complete datasets).
  std::map<std::string, std::pair<size_t, size_t>> AllSeries() const {
    std::map<std::string, std::pair<size_t, size_t>> all = acked_;
    for (const Cursor& c : cursors_) {
      for (uint64_t g = 0; g < c.generation; ++g) {
        all[SeriesName(c.dataset, g)] = {c.dataset, values_[c.dataset].size()};
      }
    }
    return all;
  }

  RunConfig config_;
  std::vector<std::vector<double>> values_;
  std::string dir_;
  int setups_ = 0;
  std::unique_ptr<lossyts::serve::Daemon> daemon_;
  std::vector<Cursor> cursors_;
  std::mutex mu_;
  /// Acked extent per series: (dataset, points).
  std::map<std::string, std::pair<size_t, size_t>> acked_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestWorkload(const RunConfig& config) {
  return std::make_unique<IngestWorkload>(config);
}

// Traced layer driver: the same kind of append sequence, driven through the
// layers' public functions without the socket — protocol encode/decode, a
// WalWriter, two Shards with explicit checkpoints, per-series streaming
// compressors and StoreWriters — then a short daemon run for kRetry counts.
void IngestLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                  MetricMap* out) {
  namespace serve = lossyts::serve;
  const std::vector<std::vector<double>> values =
      ReplaySeries(ledger);
  if (values.empty()) return;
  const std::string dir = config.work_dir + "/ingest_layers";
  RemoveTree(dir);
  MakeDirs(dir + "/shard-0");
  MakeDirs(dir + "/shard-1");
  MakeDirs(dir + "/stores");

  serve::ShardOptions shard_options;
  shard_options.stream_codec = "PMC";
  shard_options.sync = true;
  shard_options.flush_wal_bytes = ~uint64_t{0} >> 1;  // Checkpoints explicit.
  std::vector<std::unique_ptr<serve::Shard>> shards;
  for (int i = 0; i < 2; ++i) {
    auto shard = serve::Shard::Open(dir + "/shard-" + std::to_string(i),
                                    shard_options);
    if (!shard.ok()) {
      ledger.Fail("ingest layers: shard open: " + shard.status().ToString());
      return;
    }
    shards.push_back(std::move(*shard));
  }
  auto wal = serve::WalWriter::Open(dir + "/side.wal", 0);
  if (!wal.ok()) {
    ledger.Fail("ingest layers: wal open: " + wal.status().ToString());
    return;
  }

  std::vector<Cursor> cursors;
  for (size_t d = 0; d < values.size(); ++d) cursors.push_back({d, 0, 0});
  std::map<std::string, std::unique_ptr<lossyts::stream::StreamingCompressor>>
      streams;
  std::map<std::string, std::unique_ptr<lossyts::store::StoreWriter>> writers;
  std::vector<std::map<std::string, bool>> dirty(2);
  uint64_t checkpoint_bytes = 0;
  uint64_t user_points = 0;
  uint64_t batches = 0;
  constexpr size_t kBatches = 3000;
  {
    Tracer::Scope root(&tracer, "bench", "bench.ingest_layers");
    for (size_t b = 0; b < kBatches; ++b) {
      Cursor& cursor = cursors[b % cursors.size()];
      const size_t shard = cursor.dataset % 2;
      int64_t ts = 0;
      serve::Request request;
      request.type = serve::RequestType::kAppend;
      request.values = cursor.Next(values[cursor.dataset], &ts);
      request.series = cursor.Series();
      request.first_timestamp = ts;
      request.interval_seconds = kInterval;
      {
        Tracer::Scope span(&tracer, "serve", "serve.protocol");
        auto decoded = serve::DecodeRequest(serve::EncodeRequest(request));
        ledger.Check(decoded.ok() && decoded->values == request.values,
                     "ingest layers: protocol round trip");
      }
      serve::WalRecord record{request.series, ts, kInterval,
                              static_cast<uint64_t>(ts / kInterval),
                              request.values};
      {
        Tracer::Scope span(&tracer, "serve", "serve.wal_append");
        ledger.Check((*wal)->Append(record).ok(), "ingest layers: wal append");
      }
      {
        Tracer::Scope span(&tracer, "serve", "serve.wal_sync");
        ledger.Check((*wal)->Sync().ok(), "ingest layers: wal sync");
      }
      {
        Tracer::Scope span(&tracer, "serve", "serve.append_batch");
        auto status = shards[shard]->AppendBatch(
            {{request.series, ts, kInterval, request.values}});
        ledger.Check(status.size() == 1 && status[0].ok(),
                     "ingest layers: AppendBatch");
      }
      dirty[shard][request.series] = true;
      if (shards[shard]->Stats().wal_bytes > kFlushWalBytes) {
        {
          Tracer::Scope span(&tracer, "serve", "serve.checkpoint");
          ledger.Check(shards[shard]->Flush().ok(),
                       "ingest layers: checkpoint");
        }
        for (const auto& [series, unused] : dirty[shard]) {
          checkpoint_bytes += FileSize(dir + "/shard-" + std::to_string(shard) +
                                       "/" + series + ".lts");
        }
        dirty[shard].clear();
      }

      auto& stream = streams[request.series];
      if (!stream) {
        auto made = lossyts::stream::MakeStreamingCompressor("PMC");
        ledger.Check(made.ok() && (*made)->Open(0, kInterval, 0.05).ok(),
                     "ingest layers: stream open");
        if (made.ok()) stream = std::move(*made);
      }
      if (stream) {
        Tracer::Scope span(&tracer, "stream", "stream.append");
        for (double v : request.values) stream->Append(v);
      }

      auto& writer = writers[request.series];
      if (!writer) {
        lossyts::store::StoreOptions store_options;
        store_options.chunk_span = shard_options.chunk_span;
        auto made = lossyts::store::StoreWriter::Create(
            dir + "/stores/" + request.series + ".lts", store_options);
        ledger.Check(made.ok(), "ingest layers: store create");
        if (made.ok()) writer = std::move(*made);
      }
      if (writer) {
        Tracer::Scope span(&tracer, "store", "store.encode");
        ledger.Check(writer->Append(lossyts::TimeSeries(ts, kInterval,
                                                        request.values))
                         .ok(),
                     "ingest layers: store append");
      }
      user_points += request.values.size();
      ++batches;
    }
    uint64_t chunks = 0;
    for (auto& [series, writer] : writers) {
      if (!writer) continue;
      Tracer::Scope span(&tracer, "store", "store.encode");
      ledger.Check(writer->Finish().ok(), "ingest layers: store finish");
      chunks += writer->chunks_written();
    }
    (*out)["store.encode_us_per_chunk"] = {
        tracer.TotalSeconds("store.encode") * 1e6 /
            static_cast<double>(std::max<uint64_t>(chunks, 1)),
        "us"};
  }

  const double n = static_cast<double>(batches);
  const auto per_batch_us = [&](const char* span) {
    return Metric{tracer.TotalSeconds(span) * 1e6 / n, "us"};
  };
  (*out)["serve.protocol_us"] = per_batch_us("serve.protocol");
  (*out)["serve.wal_append_us"] = per_batch_us("serve.wal_append");
  (*out)["serve.wal_sync_us"] = per_batch_us("serve.wal_sync");
  (*out)["serve.append_batch_us"] = per_batch_us("serve.append_batch");
  (*out)["stream.append_ns_per_point"] = {
      tracer.TotalSeconds("stream.append") * 1e9 /
          static_cast<double>(user_points),
      "ns"};
  const uint64_t checkpoints = tracer.Count("serve.checkpoint");
  (*out)["serve.checkpoints"] = {static_cast<double>(checkpoints), "count"};
  (*out)["serve.checkpoint_ms"] = {
      checkpoints > 0 ? tracer.TotalSeconds("serve.checkpoint") * 1e3 /
                            static_cast<double>(checkpoints)
                      : 0.0,
      "ms"};
  (*out)["store.checkpoint_bytes_per_point"] = {
      static_cast<double>(checkpoint_bytes) / static_cast<double>(user_points),
      "B"};
  shards.clear();
  wal->reset();

  // kRetry count under the daemon's admission gate, from Stats().
  {
    Tracer::Scope root(&tracer, "bench", "bench.ingest_daemon");
    RunConfig daemon_config = config;
    daemon_config.work_dir = dir;
    IngestWorkload workload(daemon_config);
    Outcome outcome;
    if (workload.Setup(ledger)) {
      workload.Measure(0.5, false, &tracer, ledger, &outcome);
      workload.Verify(ledger, &outcome);
    }
    (*out)["serve.rejected"] = outcome.detail["serve.rejected"];
  }
  RemoveTree(dir);
}

}  // namespace perfbench
