#ifndef LOSSYTS_CORE_METRICS_H_
#define LOSSYTS_CORE_METRICS_H_

#include <vector>

#include "core/status.h"

namespace lossyts {

/// Distance and similarity metrics from paper §3.5 (Eq. 4-5). In every
/// function, `x` is the reference (raw/actual) series and `y` the compared
/// (predicted or decompressed) series; both must be equal-length, non-empty.
/// Rmse, Nrmse and Mae run the registry's folds (core/metric_registry.h)
/// over the one run, so they equal the "rmse", "nrmse" and "mae" metrics.

/// Root Mean Square Error.
Result<double> Rmse(const std::vector<double>& x, const std::vector<double>& y);

/// RMSE normalized by the range of the reference series: RMSE / (max(x)-min(x)).
Result<double> Nrmse(const std::vector<double>& x, const std::vector<double>& y);

/// Root Relative Squared Error: sqrt(sum (x-y)^2) / sqrt(sum (x-mean(x))^2).
Result<double> Rse(const std::vector<double>& x, const std::vector<double>& y);

/// Pearson correlation coefficient.
Result<double> PearsonR(const std::vector<double>& x,
                        const std::vector<double>& y);

/// Mean Absolute Error.
Result<double> Mae(const std::vector<double>& x, const std::vector<double>& y);

/// Maximum absolute pointwise deviation (the L-infinity distance); used to
/// verify compressor error-bound guarantees.
Result<double> MaxAbsError(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Maximum relative pointwise deviation max_i |x_i - y_i| / |x_i|, with a
/// small-denominator guard matching the relative error-bound definition used
/// by the compressors (see compress/compressor.h).
Result<double> MaxRelError(const std::vector<double>& x,
                           const std::vector<double>& y);

/// The four paper metrics (and everything beyond them) are evaluated by name
/// through the pluggable registry in core/metric_registry.h; the fixed
/// MetricSet bundle this header used to define is gone.

}  // namespace lossyts

#endif  // LOSSYTS_CORE_METRICS_H_
