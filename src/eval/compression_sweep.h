#ifndef LOSSYTS_EVAL_COMPRESSION_SWEEP_H_
#define LOSSYTS_EVAL_COMPRESSION_SWEEP_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "data/datasets.h"

namespace lossyts::eval {

/// One cell of the compression-only sweep behind Figures 2-3 and Table 3:
/// a (dataset, compressor, error bound) triple with its TE, CR and segment
/// count measured on the full (scaled) dataset. GORILLA appears once per
/// dataset with error_bound = 0 as the lossless baseline.
struct SweepRecord {
  std::string dataset;
  std::string compressor;
  double error_bound = 0.0;
  double te_nrmse = 0.0;
  double te_rmse = 0.0;
  double compression_ratio = 0.0;
  double segment_count = 0.0;
};

struct SweepOptions {
  std::vector<std::string> datasets;  // Empty = all six.
  std::vector<double> error_bounds;   // Empty = the paper's 13 bounds.
  data::DatasetOptions data;
  bool verbose = false;

  SweepOptions() { data.length_fraction = 0.125; }
};

/// Runs the sweep: per dataset, PMC, SWING and SZ at every bound, then one
/// lossless GORILLA row. Records come back in that canonical order. The
/// sweep is cheap (under a second at the default scale), so it is never
/// cached.
Result<std::vector<SweepRecord>> RunCompressionSweep(
    const SweepOptions& options);

}  // namespace lossyts::eval

#endif  // LOSSYTS_EVAL_COMPRESSION_SWEEP_H_
