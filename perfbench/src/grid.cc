// `grid`: the paper's pipeline (load -> compress at a bound -> gzip -> fit
// -> forecast -> score) through one eval::RunGrid call at jobs=2 over all six
// datasets. Transformer and Informer are left out (about 70 s for their six
// fits); their attention path is unmeasured.

#include <map>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "data/datasets.h"
#include "eval/grid.h"
#include "eval/grid_stages.h"
#include "workloads.h"

namespace perfbench {

namespace {

const std::vector<std::string>& GridModels() {
  static const std::vector<std::string> models = {"DLinear", "Arima",
                                                  "GBoost", "GRU", "NBeats"};
  return models;
}

const std::vector<std::string>& GridCodecs() {
  static const std::vector<std::string> codecs = {"PMC", "SWING", "SZ"};
  return codecs;
}

/// The measured grid over `datasets` (empty = all six).
lossyts::eval::GridOptions OptionsFor(std::vector<std::string> datasets,
                                      int jobs) {
  lossyts::eval::GridOptions options;
  options.datasets = std::move(datasets);
  options.models = GridModels();
  options.compressors = GridCodecs();
  options.seeds = {1};
  options.jobs = jobs;
  return options;
}

std::vector<std::string> Rows(const std::vector<lossyts::eval::GridRecord>& r) {
  std::vector<std::string> rows;
  rows.reserve(r.size());
  for (const auto& record : r) {
    rows.push_back(lossyts::eval::FormatGridRow(record));
  }
  return rows;
}

class GridWorkload : public Workload {
 public:
  explicit GridWorkload(const RunConfig& config) : config_(config) {}

  // Set-up generates every dataset's split once (it sizes the gzip'd raw
  // test split each transform's CR is measured against) and warms the
  // pipeline with a one-fit grid.
  bool Setup(Ledger& ledger) override {
    raw_gz_per_point_.clear();
    const lossyts::data::DatasetOptions data =
        lossyts::eval::GridOptions().data;
    for (const std::string& name : lossyts::data::DatasetNames()) {
      lossyts::eval::DatasetArtifact artifact =
          lossyts::eval::LoadDatasetStage(name, data);
      if (!artifact.status.ok()) {
        ledger.Fail("grid setup: " + artifact.status.ToString());
        return false;
      }
      const auto& test = artifact.split.test;
      raw_gz_per_point_[name] =
          static_cast<double>(lossyts::compress::RawGzipSize(test)) /
          static_cast<double>(test.size());
    }
    lossyts::eval::GridOptions warm = OptionsFor({"ETTm1"}, 2);
    warm.models = {"Arima"};
    warm.compressors = {"PMC"};
    warm.error_bounds = {0.05};
    auto records = lossyts::eval::RunGrid(warm);
    if (!records.ok()) {
      ledger.Fail("grid warm-up: " + records.status().ToString());
      return false;
    }
    return true;
  }

  // Timed RunGrid calls over the whole grid, by the whole-rounds rule with
  // one call as the round: about 14 s each on a 4-vCPU KVM guest, so one
  // call at 20 s. Every later call must reproduce the first one's records
  // byte for byte.
  void Measure(double seconds, bool whole_rounds, Tracer* tracer,
               Ledger& ledger, Outcome* out) override {
    const lossyts::eval::GridOptions options =
        OptionsFor(lossyts::data::DatasetNames(), 2);
    std::vector<double> latency_ms;
    double cells = 0.0;
    const Clock::time_point start = Clock::now();
    for (size_t op = 0;
         !LoopDone(op, 1, SecondsSince(start), seconds, whole_rounds); ++op) {
      Tracer::Scope span(tracer, "eval", "eval.run_grid");
      auto records = lossyts::eval::RunGrid(options);
      latency_ms.push_back(span.End() * 1e3);
      if (!records.ok()) {
        ledger.Fail("RunGrid: " + records.status().ToString());
        continue;
      }
      for (const auto& record : *records) {
        if (record.failed()) {
          ledger.Fail("grid cell " + lossyts::eval::CellKey(record) + ": " +
                      record.error);
        } else {
          ledger.Attempt();
        }
      }
      cells += static_cast<double>(records->size());
      if (reference_.empty()) {
        reference_ = std::move(*records);
      } else {
        ledger.Check(Rows(*records) == Rows(reference_),
                     "grid: records differ from the first call");
      }
    }
    const double elapsed = SecondsSince(start);
    SummarizeOps(latency_ms, cells, elapsed, &out->end_to_end);

    // Gzip'd codec output per test point, over the distinct transforms.
    double bytes = 0.0;
    double transforms = 0.0;
    for (const auto& r : reference_) {
      if (r.model != GridModels().front() || r.compressor == "NONE" ||
          r.compression_ratio <= 0.0) {
        continue;
      }
      bytes += raw_gz_per_point_[r.dataset] / r.compression_ratio;
      transforms += 1.0;
    }
    out->end_to_end["stored_bytes_per_point"] = {
        transforms > 0 ? bytes / transforms : 0.0, "B"};
    out->detail["grid.cells_per_s"] = {cells / elapsed, "1/s"};
    out->info.emplace("grid.jobs", "2");
  }

  // The jobs=2 records of one dataset (chosen by the seed, so the seeds
  // between them cover all six) must be byte-identical to a jobs=1 run of
  // that dataset.
  void Verify(Ledger& ledger, Outcome* out) override {
    const std::vector<std::string>& datasets = lossyts::data::DatasetNames();
    const std::string& dataset = datasets[config_.seed % datasets.size()];
    std::vector<lossyts::eval::GridRecord> parallel;
    for (const auto& r : reference_) {
      if (r.dataset == dataset) parallel.push_back(r);
    }
    auto serial = lossyts::eval::RunGrid(OptionsFor({dataset}, 1));
    ledger.Check(!parallel.empty() && serial.ok() &&
                     Rows(*serial) == Rows(parallel),
                 "grid: jobs=2 records of " + dataset +
                     " differ from the jobs=1 run");
    out->info.emplace("grid.verified_dataset", dataset);
    out->info.emplace("grid.verify_jobs", "1");
  }

 private:
  RunConfig config_;
  std::map<std::string, double> raw_gz_per_point_;
  std::vector<lossyts::eval::GridRecord> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeGridWorkload(const RunConfig& config) {
  return std::make_unique<GridWorkload>(config);
}

// Traced layer driver: the grid's four stages called inline in canonical
// order on one dataset, after an untraced RunGrid(jobs=1) of the same slice
// whose wall time the summed self times are compared against.
void GridLayers(const RunConfig&, Ledger& ledger, Tracer& tracer,
                MetricMap* out) {
  using namespace lossyts::eval;
  const std::string dataset_name = "ETTm1";
  const GridOptions options = OptionsFor({dataset_name}, 1);

  const Clock::time_point untraced_start = Clock::now();
  auto reference = RunGrid(options);
  const double untraced_s = SecondsSince(untraced_start);
  if (!reference.ok()) {
    ledger.Fail("grid layers: " + reference.status().ToString());
    return;
  }

  std::vector<GridRecord> records;
  double fit_max = 0.0;
  uint64_t transforms = 0;
  uint64_t fits = 0;
  {
    Tracer::Scope root(&tracer, "bench", "bench.grid_layers");
    DatasetArtifact dataset;
    {
      Tracer::Scope span(&tracer, "data", "data.load");
      dataset = LoadDatasetStage(dataset_name, options.data);
    }
    const std::vector<double>& bounds = lossyts::compress::PaperErrorBounds();
    std::vector<TransformArtifact> transform;
    for (const std::string& codec : GridCodecs()) {
      for (double eb : bounds) {
        Tracer::Scope span(&tracer, "eval", "eval.compress_stage");
        transform.push_back(CompressAtBoundStage(
            dataset_name, codec, eb, dataset.split.test, "",
            1 + options.max_cell_retries, false));
        ++transforms;
      }
    }
    for (const std::string& model : GridModels()) {
      FitArtifact fit;
      {
        Tracer::Scope span(&tracer, "forecast", "forecast.fit." + model);
        fit = FitModelStage(model, dataset, options, 1, nullptr);
        fit_max = std::max(fit_max, span.End());
        ++fits;
      }
      Tracer::Scope span(&tracer, "eval", "eval.evaluate." + model);
      records.push_back(EvaluateCellStage({dataset_name, model, "NONE", 0.0, 1},
                                          options, dataset, fit, nullptr));
      size_t ti = 0;
      for (const std::string& codec : GridCodecs()) {
        for (double eb : bounds) {
          records.push_back(
              EvaluateCellStage({dataset_name, model, codec, eb, 1}, options,
                                dataset, fit, &transform[ti++]));
        }
      }
    }
  }
  ledger.Check(Rows(records) == Rows(*reference),
               "grid layers: inline stages differ from RunGrid(jobs=1)");

  (*out)["data.load_s"] = {tracer.TotalSeconds("data.load"), "s"};
  (*out)["eval.compress_stage_s"] = {
      tracer.TotalSeconds("eval.compress_stage"), "s"};
  for (const std::string& model : GridModels()) {
    (*out)["forecast.fit_s." + model] = {
        tracer.TotalSeconds("forecast.fit." + model), "s"};
    (*out)["eval.evaluate_s." + model] = {
        tracer.TotalSeconds("eval.evaluate." + model), "s"};
  }
  (*out)["forecast.fit_max_s"] = {fit_max, "s"};
  (*out)["eval.transforms"] = {static_cast<double>(transforms), "count"};
  (*out)["eval.fits"] = {static_cast<double>(fits), "count"};
  (*out)["trace.grid_self_share"] = {
      tracer.LayerSelfUnder("bench.grid_layers") / untraced_s, "ratio"};
}

}  // namespace perfbench
