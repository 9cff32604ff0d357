// Reproduces Figure 1: what PMC, SWING and SZ output looks like against the
// original series on ETTm1/ETTm2 segments at error bounds 0.05 and 0.1.
// The figure is rendered as text: a subsampled value track per method plus
// the structural statistics that the paper reads off the plot (SZ's
// quantization-induced constant runs, PMC's steps, SWING's slopes).

#include <cstdio>

#include "compress/pipeline.h"
#include "data/datasets.h"
#include "eval/report.h"

using namespace lossyts;

namespace {

void ShowSegment(const std::string& dataset_name, double error_bound) {
  data::DatasetOptions options;
  options.length_fraction = 0.125;
  Result<data::Dataset> dataset = data::MakeDataset(dataset_name, options);
  if (!dataset.ok()) return;
  // A 300-point afternoon slice, as in the paper's plot.
  Result<TimeSeries> slice = dataset->series.Slice(1000, 1300);
  if (!slice.ok()) return;

  std::printf("--- %s @ error bound %.2f (300-point slice) ---\n",
              dataset_name.c_str(), error_bound);
  eval::TableWriter table(
      {"t", "OR", "PMC", "SWING", "SZ"});

  std::vector<TimeSeries> outputs;
  std::vector<size_t> runs;
  for (const std::string& name : compress::LossyCompressorNames()) {
    Result<std::unique_ptr<compress::Compressor>> compressor =
        compress::MakeCompressor(name);
    if (!compressor.ok()) return;
    Result<compress::PipelineResult> result =
        compress::RunPipeline(**compressor, *slice, error_bound);
    if (!result.ok()) return;
    runs.push_back(compress::CountConstantRuns(result->decompressed));
    outputs.push_back(std::move(result->decompressed));
  }

  for (size_t i = 0; i < slice->size(); i += 15) {
    table.AddRow({std::to_string(i), eval::FormatDouble((*slice)[i], 2),
                  eval::FormatDouble(outputs[0][i], 2),
                  eval::FormatDouble(outputs[1][i], 2),
                  eval::FormatDouble(outputs[2][i], 2)});
  }
  table.Print();
  std::printf(
      "constant runs in 300 points: PMC %zu, SWING %zu, SZ %zu "
      "(SZ's quantization makes it look piecewise-constant like PMC)\n\n",
      runs[0], runs[1], runs[2]);
}

}  // namespace

int main() {
  std::printf(
      "=== Figure 1: compression output vs original (OR) series ===\n\n");
  for (const char* dataset : {"ETTm1", "ETTm2"}) {
    for (double eb : {0.05, 0.1}) {
      ShowSegment(dataset, eb);
    }
  }
  return 0;
}
