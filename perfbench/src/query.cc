// `query`: one client over a directory of .lts stores built during set-up —
// the six datasets at full length, each with an actual store and a .pred
// store (seasonal-naive forecast), default codecs at eb 0.05. The client
// issues a fixed mix: grouped aggregates and grouped metrics through
// query::QueryStoreDir, uniform random StoreReader::ReadPoint, and short
// ReadRange. ETTm1, ETTm2, ElecDem and Wind exceed the reader's 64-chunk
// decode cache; Solar and Weather fit.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "query/query.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kJobs = 2;
constexpr size_t kPointsPerRound = 100;
constexpr size_t kRangesPerRound = 10;
constexpr size_t kRangePoints = 256;
constexpr double kErrorBound = 0.05;

// Store names group by prefix: ett (2), energy (3), weather (1).
const std::map<std::string, std::string>& StoreNames() {
  static const std::map<std::string, std::string> names = {
      {"ETTm1", "ett_m1"},           {"ETTm2", "ett_m2"},
      {"Solar", "energy_solar"},     {"ElecDem", "energy_elecdem"},
      {"Wind", "energy_wind"},       {"Weather", "weather_station"}};
  return names;
}

lossyts::query::QueryOptions AggregateQuery(int jobs) {
  lossyts::query::QueryOptions q;
  q.aggregates = {"MIN", "MAX", "MEAN", "COUNT"};
  q.group_by = lossyts::query::GroupMode::kPrefix;
  q.jobs = jobs;
  return q;
}

lossyts::query::QueryOptions MetricQuery(int jobs) {
  lossyts::query::QueryOptions q;
  q.metrics = {"rmse", "mae", "smape"};
  q.group_by = lossyts::query::GroupMode::kPrefix;
  q.jobs = jobs;
  return q;
}

/// One series of the directory: raw values and its actual store's reader.
struct StoreSeries {
  std::string name;
  lossyts::TimeSeries raw;
  std::unique_ptr<lossyts::store::StoreReader> reader;
};

lossyts::Status WriteStore(const std::string& path,
                           const lossyts::TimeSeries& series) {
  auto writer = lossyts::store::StoreWriter::Create(path, {});
  if (!writer.ok()) return writer.status();
  if (lossyts::Status s = (*writer)->Append(series); !s.ok()) return s;
  return (*writer)->Finish();
}

/// Generates the datasets and writes `dir`. With `open`, also opens every
/// actual store for point and range reads.
bool BuildStoreDir(const std::string& dir, bool open,
                   Ledger& ledger, std::vector<StoreSeries>* out) {
  RemoveTree(dir);
  MakeDirs(dir);
  lossyts::data::DatasetOptions options;
  options.length_fraction = 1.0;
  out->clear();
  for (const std::string& dataset : lossyts::data::DatasetNames()) {
    auto d = lossyts::data::MakeDataset(dataset, options);
    if (!d.ok()) {
      ledger.Fail("query setup: " + d.status().ToString());
      return false;
    }
    const std::string name = StoreNames().at(dataset);
    const std::vector<double>& v = d->series.values();
    std::vector<double> pred(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      pred[i] = i >= d->season_length ? v[i - d->season_length] : v[i];
    }
    const lossyts::TimeSeries& actual = d->series;
    lossyts::Status s = WriteStore(dir + "/" + name + ".lts", actual);
    if (s.ok()) {
      s = WriteStore(dir + "/" + name + ".pred.lts",
                     lossyts::TimeSeries(actual.start_timestamp(),
                                         actual.interval_seconds(), pred));
    }
    if (!s.ok()) {
      ledger.Fail("query setup: " + s.ToString());
      return false;
    }
    StoreSeries series{name, actual, nullptr};
    if (open) {
      auto reader =
          lossyts::store::StoreReader::Open(dir + "/" + name + ".lts");
      if (!reader.ok()) {
        ledger.Fail("query setup: " + reader.status().ToString());
        return false;
      }
      series.reader = std::move(*reader);
    }
    out->push_back(std::move(series));
  }
  return true;
}

double DirBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bytes += static_cast<double>(FileSize(entry.path()));
  }
  return bytes;
}

class QueryWorkload : public Workload {
 public:
  explicit QueryWorkload(const RunConfig& config) : config_(config) {}

  bool Setup(Ledger& ledger) override {
    dir_ = config_.work_dir + "/stores" + std::to_string(setups_++);
    return BuildStoreDir(dir_, true, ledger, &series_);
  }

  void Teardown() override {
    series_.clear();
    RemoveTree(dir_);
  }

  void Measure(double seconds, bool whole_rounds, Tracer* tracer,
               Ledger& ledger, Outcome* out) override {
    std::mt19937_64 rng(config_.seed);
    std::vector<double> all_ms, agg_ms, metric_ms, point_us, range_ms;
    const size_t round = 2 + kPointsPerRound + kRangesPerRound;
    const Clock::time_point start = Clock::now();
    for (size_t op = 0;; ++op) {
      if (LoopDone(op, round, SecondsSince(start), seconds, whole_rounds)) {
        break;
      }
      const size_t slot = op % round;
      if (slot < 2) {
        const bool agg = slot == 0;
        Tracer::Scope span(tracer, "query",
                           agg ? "query.dir_aggregate" : "query.dir_metric");
        auto result = lossyts::query::QueryStoreDir(
            dir_, agg ? AggregateQuery(kJobs) : MetricQuery(kJobs));
        const double ms = span.End() * 1e3;
        (agg ? agg_ms : metric_ms).push_back(ms);
        all_ms.push_back(ms);
        ledger.Check(result.ok() && result->rows.size() == 3,
                     "query: grouped query failed");
        continue;
      }
      const StoreSeries& s = series_[rng() % series_.size()];
      if (slot < 2 + kPointsPerRound) {
        const size_t i = rng() % s.raw.size();
        Tracer::Scope span(tracer, "store", "store.point");
        auto value = s.reader->ReadPoint(s.raw.TimestampAt(i));
        const double sec = span.End();
        point_us.push_back(sec * 1e6);
        all_ms.push_back(sec * 1e3);
        ledger.Check(value.ok() && std::fabs(*value - s.raw[i]) <=
                                       kErrorBound * std::fabs(s.raw[i]) *
                                           (1 + 1e-9),
                     "query: point read outside the bound");
      } else {
        const size_t i = rng() % (s.raw.size() - kRangePoints);
        Tracer::Scope span(tracer, "store", "store.range");
        auto range = s.reader->ReadRange(
            s.raw.TimestampAt(i), s.raw.TimestampAt(i + kRangePoints - 1));
        const double ms = span.End() * 1e3;
        range_ms.push_back(ms);
        all_ms.push_back(ms);
        ledger.Check(range.ok() && range->size() == kRangePoints,
                     "query: short range read failed");
      }
    }
    const double elapsed = SecondsSince(start);
    SummarizeOps(all_ms, static_cast<double>(all_ms.size()), elapsed,
                 &out->end_to_end);
    double points = 0.0;
    for (const StoreSeries& s : series_) points += 2.0 * s.raw.size();
    out->end_to_end["stored_bytes_per_point"] = {DirBytes(dir_) / points, "B"};
    out->detail["query.ops_per_s"] = out->end_to_end["throughput_per_s"];
    out->detail["query.agg_p50_ms"] = {Quantile(agg_ms, 0.5), "ms"};
    out->detail["query.metric_p50_ms"] = {Quantile(metric_ms, 0.5), "ms"};
    out->detail["query.point_p50_us"] = {Quantile(point_us, 0.5), "us"};
    out->detail["query.point_p99_us"] = {Quantile(point_us, 0.99), "us"};
    out->detail["query.range_p50_ms"] = {Quantile(range_ms, 0.5), "ms"};
    out->detail["query.grouped_ops"] = {
        static_cast<double>(agg_ms.size() + metric_ms.size()), "count"};
    out->detail["query.point_ops"] = {static_cast<double>(point_us.size()),
                                      "count"};
    out->info.emplace("query.jobs", "2");
  }

  // Pushdown aggregates must lie within their reported bound of the decode
  // path and of the raw data, and grouped output must be byte-identical
  // across jobs 1 and 2.
  void Verify(Ledger& ledger, Outcome*) override {
    using lossyts::store::AggregateKind;
    using lossyts::store::AggregateRange;
    for (const StoreSeries& s : series_) {
      for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax,
                                 AggregateKind::kMean, AggregateKind::kSum}) {
        lossyts::store::AggregateOptions pushdown;
        pushdown.jobs = kJobs;
        lossyts::store::AggregateOptions decode = pushdown;
        decode.allow_pushdown = false;
        const int64_t t0 = s.raw.TimestampAt(0);
        const int64_t t1 = s.raw.TimestampAt(s.raw.size() - 1);
        auto p = AggregateRange(*s.reader, kind, t0, t1, pushdown);
        auto d = AggregateRange(*s.reader, kind, t0, t1, decode);
        const std::vector<double>& v = s.raw.values();
        double raw = 0.0;
        if (kind == AggregateKind::kMin) {
          raw = *std::min_element(v.begin(), v.end());
        } else if (kind == AggregateKind::kMax) {
          raw = *std::max_element(v.begin(), v.end());
        } else {
          for (double x : v) raw += x;
          if (kind == AggregateKind::kMean) raw /= v.size();
        }
        const double slack = 1e-9 * (std::fabs(raw) + 1.0);
        const double bound = p.ok() ? p->error_bound + slack : 0.0;
        ledger.Check(p.ok() && d.ok() &&
                         std::fabs(p->value - d->value) <= bound &&
                         std::fabs(p->value - raw) <= bound,
                     "query: pushdown " +
                         std::string(lossyts::store::AggregateKindName(kind)) +
                         " of " + s.name + " outside its bound");
      }
    }
    for (const auto& make : {AggregateQuery, MetricQuery}) {
      auto one = lossyts::query::QueryStoreDir(dir_, make(1));
      auto two = lossyts::query::QueryStoreDir(dir_, make(2));
      ledger.Check(one.ok() && two.ok() &&
                       lossyts::query::FormatQueryResult(*one) ==
                           lossyts::query::FormatQueryResult(*two),
                   "query: output differs between jobs 1 and 2");
    }
  }

 private:
  RunConfig config_;
  std::string dir_;
  int setups_ = 0;
  std::vector<StoreSeries> series_;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryWorkload(const RunConfig& config) {
  return std::make_unique<QueryWorkload>(config);
}

// Traced layer driver: StoreReader::Open, pushdown aggregates, full range
// reads, EvaluateGroupedSeries on the pre-read inputs, cold chunk decodes and
// a random point-read sample on fresh readers for the cache hit rate.
void QueryLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                 MetricMap* out) {
  using lossyts::store::StoreReader;
  const std::string dir = config.work_dir + "/query_layers";
  std::vector<StoreSeries> series;
  {
    Tracer::Scope span(&tracer, "store", "store.build_dir");
    if (!BuildStoreDir(dir, false, ledger, &series)) return;
  }
  Tracer::Scope root(&tracer, "bench", "bench.query_layers");
  std::vector<std::unique_ptr<StoreReader>> actual, pred;
  for (const StoreSeries& s : series) {
    for (auto [suffix, readers] :
         {std::pair{".lts", &actual}, std::pair{".pred.lts", &pred}}) {
      Tracer::Scope span(&tracer, "store", "store.open");
      auto reader = StoreReader::Open(dir + "/" + s.name + suffix);
      span.End();
      if (!reader.ok()) {
        ledger.Fail("query layers: open: " + reader.status().ToString());
        return;
      }
      readers->push_back(std::move(*reader));
    }
  }

  uint64_t pushdown = 0, decoded = 0, aggregates = 0;
  for (const auto& reader : actual) {
    for (const char* name : {"MIN", "MAX", "MEAN", "COUNT"}) {
      lossyts::store::AggregateOptions options;
      options.jobs = kJobs;
      Tracer::Scope span(&tracer, "store", "store.aggregate");
      auto result = lossyts::store::AggregateRange(
          *reader, *lossyts::store::ParseAggregateKind(name),
          reader->start_timestamp(), reader->last_timestamp(), options);
      span.End();
      ledger.Check(result.ok(), "query layers: aggregate");
      if (result.ok()) {
        pushdown += result->pushdown_chunks;
        decoded += result->decoded_chunks;
      }
      ++aggregates;
    }
  }

  std::vector<lossyts::TimeSeries> reads;
  for (const auto* group : {&actual, &pred}) {
    for (const auto& reader : *group) {
      Tracer::Scope span(&tracer, "store", "store.read_range");
      auto all = reader->ReadRange(reader->start_timestamp(),
                                   reader->last_timestamp(), kJobs);
      span.End();
      ledger.Check(all.ok(), "query layers: read range");
      reads.push_back(all.ok() ? std::move(*all) : lossyts::TimeSeries());
    }
  }
  std::vector<lossyts::query::SeriesInput> inputs;
  for (size_t i = 0; i < series.size(); ++i) {
    inputs.push_back({series[i].name, &reads[i], &reads[series.size() + i]});
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  {
    Tracer::Scope span(&tracer, "query", "query.group_eval");
    auto grouped =
        lossyts::query::EvaluateGroupedSeries(inputs, MetricQuery(kJobs));
    span.End();
    auto reference = lossyts::query::QueryStoreDir(dir, MetricQuery(kJobs));
    ledger.Check(grouped.ok() && reference.ok() &&
                     lossyts::query::FormatQueryResult(*grouped) ==
                         lossyts::query::FormatQueryResult(*reference),
                 "query layers: grouped evaluation differs from QueryStoreDir");
  }

  uint64_t chunks = 0, hits = 0, misses = 0;
  std::mt19937_64 rng(config.seed);
  for (size_t i = 0; i < series.size(); ++i) {
    auto cold = StoreReader::Open(dir + "/" + series[i].name + ".lts");
    if (!cold.ok()) continue;
    for (size_t c = 0; c < (*cold)->chunks().size(); ++c) {
      Tracer::Scope span(&tracer, "store", "store.decode_chunk");
      ledger.Check((*cold)->DecodeChunkValues(c).ok(), "query layers: decode");
      ++chunks;
    }
    auto fresh = StoreReader::Open(dir + "/" + series[i].name + ".lts");
    if (!fresh.ok()) continue;
    const lossyts::TimeSeries& raw = series[i].raw;
    for (int k = 0; k < 500; ++k) {
      const int64_t t = raw.TimestampAt(rng() % raw.size());
      Tracer::Scope span(&tracer, "store", "store.read_point");
      ledger.Check((*fresh)->ReadPoint(t).ok(), "query layers: point read");
    }
    hits += (*fresh)->cache_hits();
    misses += (*fresh)->cache_misses();
  }
  root.End();

  const auto mean_ms = [&](const char* name, double n) {
    return Metric{tracer.TotalSeconds(name) * 1e3 / std::max(n, 1.0), "ms"};
  };
  (*out)["store.open_ms"] = mean_ms("store.open", 2.0 * series.size());
  (*out)["store.aggregate_ms"] = mean_ms("store.aggregate", aggregates);
  (*out)["store.pushdown_chunks"] = {static_cast<double>(pushdown), "count"};
  (*out)["store.decoded_chunks"] = {static_cast<double>(decoded), "count"};
  (*out)["store.read_range_ms"] = mean_ms("store.read_range", reads.size());
  (*out)["query.group_eval_ms"] = mean_ms("query.group_eval", 1.0);
  (*out)["store.decode_chunk_us"] = {
      tracer.TotalSeconds("store.decode_chunk") * 1e6 /
          static_cast<double>(std::max<uint64_t>(chunks, 1)),
      "us"};
  (*out)["store.cache_hit_rate"] = {
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
      "ratio"};
  RemoveTree(dir);
}

}  // namespace perfbench
