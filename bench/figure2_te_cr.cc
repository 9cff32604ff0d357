// Reproduces Figure 2: transformation error (NRMSE) and compression ratio
// per lossy compression method across the 13 error bounds and six datasets,
// with GORILLA's lossless CR as the horizontal baseline.

#include <cstdio>

#include "bench_common.h"
#include "eval/report.h"

using namespace lossyts;

int main() {
  Result<std::vector<eval::SweepRecord>> sweep =
      eval::RunCompressionSweep(bench::DefaultSweepOptions());
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep: %s\n", sweep.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Figure 2: TE (NRMSE) and CR per error bound ===\n\n");
  for (const std::string& dataset : data::DatasetNames()) {
    double gorilla_cr = 0.0;
    for (const eval::SweepRecord& r : *sweep) {
      if (r.dataset == dataset && r.compressor == "GORILLA") {
        gorilla_cr = r.compression_ratio;
      }
    }
    std::printf("--- %s (GORILLA lossless baseline CR = %.2fx) ---\n",
                dataset.c_str(), gorilla_cr);
    eval::TableWriter table({"eb", "PMC TE", "PMC CR", "SWING TE", "SWING CR",
                             "SZ TE", "SZ CR"});
    for (double eb : compress::PaperErrorBounds()) {
      std::vector<std::string> row = {eval::FormatDouble(eb, 2)};
      for (const std::string& method : compress::LossyCompressorNames()) {
        for (const eval::SweepRecord& r : *sweep) {
          if (r.dataset == dataset && r.compressor == method &&
              r.error_bound == eb) {
            row.push_back(eval::FormatDouble(r.te_nrmse, 4));
            row.push_back(eval::FormatDouble(r.compression_ratio, 1));
          }
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Shape checks vs the paper: every lossy method beats GORILLA's CR "
      "even at eb=0.01 (exception allowed: SWING on Solar); SZ leads CR at "
      "low bounds, PMC overtakes as the bound grows; PMC's TE grows "
      "sub-linearly.\n");
  return 0;
}
