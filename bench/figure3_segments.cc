// Reproduces Figure 3: number of segments produced by each lossy method per
// error bound and dataset. For SZ, which has no explicit segments, the count
// is the number of constant runs in the decompressed output (see DESIGN.md).

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

  std::printf("=== Figure 3: segment counts per error bound ===\n\n");
  for (const std::string& dataset : data::DatasetNames()) {
    std::printf("--- %s ---\n", dataset.c_str());
    eval::TableWriter table({"eb", "PMC", "SWING", "SZ"});
    for (double eb : compress::PaperErrorBounds()) {
      std::vector<std::string> row = {eval::FormatDouble(eb, 2)};
      for (const std::string& method : compress::LossyCompressorNames()) {
        for (const eval::SweepRecord& r : *sweep) {
          if (r.dataset == dataset && r.compressor == method &&
              r.error_bound == eb) {
            row.push_back(std::to_string(
                static_cast<long long>(r.segment_count)));
          }
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Shape checks vs the paper: SWING needs the fewest segments (two "
      "coefficients buy flexibility); PMC's segment count falls fastest as "
      "the bound grows, which is what wins it the high-bound CR race.\n");
  return 0;
}
