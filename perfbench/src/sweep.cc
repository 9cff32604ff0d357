// `sweep`: the model-less half of the paper (Figs. 2-3, Table 3). One
// compress::RunPipeline call per (dataset, codec, bound) on the full scaled
// series, for all eight codecs, on one thread; the lossless codecs run once
// per dataset. Codec and gzip gains show here; forecast does no work.

#include <algorithm>
#include <cstring>
#include <random>
#include <memory>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "core/metrics.h"
#include "data/datasets.h"
#include "workloads.h"
#include "zip/gzip.h"

namespace perfbench {

namespace {

const std::vector<std::string>& LossyCodecs() {
  static const std::vector<std::string> codecs = {"PMC",   "SWING", "SZ",
                                                  "PPA",   "LFZIP", "CAMEO"};
  return codecs;
}
const std::vector<std::string>& LosslessCodecs() {
  static const std::vector<std::string> codecs = {"GORILLA", "CHIMP"};
  return codecs;
}

struct Cell {
  size_t dataset = 0;
  size_t codec = 0;  ///< Index into SweepInputs::codecs.
  double error_bound = 0.0;
};

/// The generated series, the eight codecs and the canonical cell order.
struct SweepInputs {
  std::vector<lossyts::data::Dataset> datasets;
  std::vector<std::string> codec_names;
  std::vector<std::unique_ptr<lossyts::compress::Compressor>> codecs;
  std::vector<Cell> cells;
};

/// The seed shuffles the cell order.
bool BuildInputs(uint64_t seed, Ledger& ledger, SweepInputs* in) {
  auto datasets = lossyts::data::MakeAllDatasets();  // length_fraction 0.125.
  if (!datasets.ok()) {
    ledger.Fail("sweep setup: " + datasets.status().ToString());
    return false;
  }
  in->datasets = std::move(*datasets);
  in->codec_names = LossyCodecs();
  in->codec_names.insert(in->codec_names.end(), LosslessCodecs().begin(),
                         LosslessCodecs().end());
  in->codecs.clear();
  for (const std::string& name : in->codec_names) {
    auto codec = lossyts::compress::MakeCompressor(name);
    if (!codec.ok()) {
      ledger.Fail("sweep setup: " + codec.status().ToString());
      return false;
    }
    in->codecs.push_back(std::move(*codec));
  }
  in->cells.clear();
  for (size_t d = 0; d < in->datasets.size(); ++d) {
    for (size_t c = 0; c < in->codec_names.size(); ++c) {
      if (c < LossyCodecs().size()) {
        for (double eb : lossyts::compress::PaperErrorBounds()) {
          in->cells.push_back({d, c, eb});
        }
      } else {
        in->cells.push_back({d, c, 0.0});
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(in->cells.begin(), in->cells.end(), rng);
  return true;
}

/// What one cell produced, compared across repeats.
struct CellResult {
  size_t gz_bytes = 0;
  size_t compressed_bytes = 0;
  size_t segments = 0;
  double compression_ratio = 0.0;
  double te_nrmse = 0.0;
  double te_max_rel = 0.0;
  std::vector<double> decompressed;

  bool operator==(const CellResult& o) const {
    return gz_bytes == o.gz_bytes && compressed_bytes == o.compressed_bytes &&
           segments == o.segments &&
           compression_ratio == o.compression_ratio &&
           te_nrmse == o.te_nrmse && te_max_rel == o.te_max_rel &&
           decompressed.size() == o.decompressed.size() &&
           std::memcmp(decompressed.data(), o.decompressed.data(),
                       decompressed.size() * sizeof(double)) == 0;
  }
};

CellResult FromPipeline(lossyts::compress::PipelineResult&& r) {
  return {r.gz_bytes,        r.compressed_bytes, r.segment_count,
          r.compression_ratio, r.te_nrmse,       r.te_max_rel,
          std::move(r.decompressed.mutable_values())};
}

class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(const RunConfig& config) : config_(config) {}

  bool Setup(Ledger& ledger) override {
    return BuildInputs(config_.seed, ledger, &in_);
  }

  void Measure(double seconds, bool whole_rounds, Tracer* tracer,
               Ledger& ledger, Outcome* out) override {
    std::vector<double> latency_ms;
    latency_ms.reserve(in_.cells.size() * 8);
    double gz_bytes = 0.0;
    double points = 0.0;
    const Clock::time_point start = Clock::now();
    for (size_t op = 0;; ++op) {
      if (LoopDone(op, in_.cells.size(), SecondsSince(start), seconds,
                   whole_rounds)) {
        break;
      }
      const size_t ci = op % in_.cells.size();
      const Cell& cell = in_.cells[ci];
      const lossyts::data::Dataset& dataset = in_.datasets[cell.dataset];
      Tracer::Scope span(tracer, "compress", "compress.run_pipeline");
      auto result = lossyts::compress::RunPipeline(*in_.codecs[cell.codec],
                                                   dataset.series,
                                                   cell.error_bound);
      latency_ms.push_back(span.End() * 1e3);
      if (!result.ok()) {
        ledger.Fail("RunPipeline " + dataset.name + " " +
                    in_.codec_names[cell.codec] + ": " +
                    result.status().ToString());
        continue;
      }
      ledger.Attempt();
      CellResult got = FromPipeline(std::move(*result));
      if (first_.size() == ci) {
        gz_bytes += static_cast<double>(got.gz_bytes);
        points += static_cast<double>(dataset.series.size());
        first_.push_back(std::move(got));
      } else if (ci < first_.size() && !(got == first_[ci])) {
        ++mismatches_;
      }
    }
    const double elapsed = SecondsSince(start);
    SummarizeOps(latency_ms, static_cast<double>(latency_ms.size()), elapsed,
                 &out->end_to_end);
    out->end_to_end["stored_bytes_per_point"] = {
        points > 0 ? gz_bytes / points : 0.0, "B"};
    out->detail["sweep.cells_per_s"] =
        out->end_to_end["throughput_per_s"];
    out->detail["sweep.rounds"] = {
        static_cast<double>(latency_ms.size()) /
            static_cast<double>(in_.cells.size()),
        "count"};
    out->info.emplace("sweep.jobs", "1");
  }

  // Repeats must reproduce the first round exactly: later rounds inside
  // Measure, plus a re-run of every eighth cell (offset by the seed). Every
  // lossy cell must honour its pointwise relative bound.
  void Verify(Ledger& ledger, Outcome*) override {
    for (size_t ci = config_.seed % 8; ci < first_.size(); ci += 8) {
      const Cell& cell = in_.cells[ci];
      auto again = lossyts::compress::RunPipeline(
          *in_.codecs[cell.codec], in_.datasets[cell.dataset].series,
          cell.error_bound);
      if (!again.ok()) {
        ++mismatches_;
        continue;
      }
      CellResult got = FromPipeline(std::move(*again));
      if (!(got == first_[ci])) ++mismatches_;
    }
    ledger.Check(mismatches_ == 0,
                 "sweep: " + std::to_string(mismatches_) +
                     " repeated cells differ from the first round");
    for (size_t ci = 0; ci < first_.size() && ci < in_.cells.size(); ++ci) {
      const Cell& cell = in_.cells[ci];
      if (cell.error_bound <= 0.0) continue;
      ledger.Check(first_[ci].te_max_rel <= cell.error_bound * (1 + 1e-12),
                   "sweep: " + in_.codec_names[cell.codec] + " on " +
                       in_.datasets[cell.dataset].name + " exceeds eb " +
                       std::to_string(cell.error_bound));
    }
  }

 private:
  RunConfig config_;
  SweepInputs in_;
  std::vector<CellResult> first_;
  uint64_t mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSweepWorkload(const RunConfig& config) {
  return std::make_unique<SweepWorkload>(config);
}

// Traced layer driver: RunPipeline's steps called one by one through the
// public functions (CSV serialization, gzip of the raw CSV, encode, gzip of
// the blob, decode, TE metrics) over ETTm1's 80 sweep cells, after an
// untraced pass of RunPipeline calls over the same cells.
void SweepLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                 MetricMap* out) {
  namespace compress = lossyts::compress;
  SweepInputs in;
  if (!BuildInputs(config.seed, ledger, &in)) return;
  std::erase_if(in.cells, [](const Cell& c) { return c.dataset != 0; });

  const Clock::time_point untraced_start = Clock::now();
  for (const Cell& cell : in.cells) {
    auto result = compress::RunPipeline(
        *in.codecs[cell.codec], in.datasets[cell.dataset].series,
        cell.error_bound);
    ledger.Check(result.ok(), "sweep layers: RunPipeline failed");
  }
  const double untraced_s = SecondsSince(untraced_start);

  std::vector<double> raw_bytes(in.codec_names.size(), 0.0);
  std::vector<double> cr_sum(in.codec_names.size(), 0.0);
  std::vector<double> cr_n(in.codec_names.size(), 0.0);
  double gzip_bytes = 0.0;
  {
    Tracer::Scope root(&tracer, "bench", "bench.sweep_layers");
    for (const Cell& cell : in.cells) {
      const lossyts::TimeSeries& series = in.datasets[cell.dataset].series;
      const compress::Compressor& codec = *in.codecs[cell.codec];
      const std::string& name = in.codec_names[cell.codec];
      std::vector<uint8_t> csv;
      {
        Tracer::Scope span(&tracer, "compress", "compress.csv");
        csv = compress::SerializeRawCsv(series);
      }
      size_t raw_gz = 0;
      {
        Tracer::Scope span(&tracer, "zip", "zip.gzip_raw");
        raw_gz = lossyts::zip::GzipCompress(csv).size();
      }
      lossyts::Result<std::vector<uint8_t>> blob = std::vector<uint8_t>();
      {
        Tracer::Scope span(&tracer, "compress", "compress.encode." + name);
        blob = codec.Compress(series, cell.error_bound);
      }
      if (!blob.ok()) {
        ledger.Fail("sweep layers: encode " + name);
        continue;
      }
      size_t gz = 0;
      {
        Tracer::Scope span(&tracer, "zip", "zip.gzip_blob");
        gz = lossyts::zip::GzipCompress(*blob).size();
      }
      lossyts::Result<lossyts::TimeSeries> decoded = lossyts::TimeSeries();
      {
        Tracer::Scope span(&tracer, "compress", "compress.decode." + name);
        decoded = codec.Decompress(*blob);
      }
      if (!decoded.ok()) {
        ledger.Fail("sweep layers: decode " + name);
        continue;
      }
      {
        Tracer::Scope span(&tracer, "core", "core.te_metrics");
        bool ok = lossyts::Rmse(series.values(), decoded->values()).ok();
        ok = ok && lossyts::Nrmse(series.values(), decoded->values()).ok();
        ok = ok && lossyts::Rse(series.values(), decoded->values()).ok();
        ok = ok &&
             lossyts::MaxRelError(series.values(), decoded->values()).ok();
        ledger.Check(ok, "sweep layers: TE metrics of " + name);
      }
      {
        Tracer::Scope span(&tracer, "compress", "compress.segments");
        compress::CountConstantRuns(*decoded);
      }
      raw_bytes[cell.codec] += 8.0 * static_cast<double>(series.size());
      cr_sum[cell.codec] +=
          static_cast<double>(raw_gz) / static_cast<double>(gz);
      cr_n[cell.codec] += 1.0;
      gzip_bytes += static_cast<double>(csv.size() + blob->size());
    }
  }

  const double gzip_s = tracer.TotalSeconds("zip.gzip_raw") +
                        tracer.TotalSeconds("zip.gzip_blob");
  (*out)["compress.csv_s"] = {tracer.TotalSeconds("compress.csv"), "s"};
  (*out)["zip.gzip_raw_s"] = {tracer.TotalSeconds("zip.gzip_raw"), "s"};
  (*out)["zip.gzip_blob_s"] = {tracer.TotalSeconds("zip.gzip_blob"), "s"};
  (*out)["zip.gzip_mbps"] = {gzip_bytes / 1e6 / gzip_s, "MB/s"};
  for (size_t c = 0; c < in.codec_names.size(); ++c) {
    const std::string& name = in.codec_names[c];
    (*out)["compress.encode_mbps." + name] = {
        raw_bytes[c] / 1e6 / tracer.TotalSeconds("compress.encode." + name),
        "MB/s"};
    (*out)["compress.decode_mbps." + name] = {
        raw_bytes[c] / 1e6 / tracer.TotalSeconds("compress.decode." + name),
        "MB/s"};
    (*out)["compress.cr." + name] = {cr_n[c] > 0 ? cr_sum[c] / cr_n[c] : 0.0,
                                     "ratio"};
  }
  (*out)["trace.sweep_self_share"] = {
      tracer.LayerSelfUnder("bench.sweep_layers") / untraced_s, "ratio"};
}

}  // namespace perfbench
