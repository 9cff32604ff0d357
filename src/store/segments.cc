#include "store/segments.h"

#include <algorithm>
#include <cmath>

namespace lossyts::store {

SegmentAggregate AggregateSegment(const compress::SegmentModel& s,
                                  uint32_t first, uint32_t last) {
  SegmentAggregate agg;
  const uint64_t n = static_cast<uint64_t>(last) - first + 1;
  agg.count = n;
  // Endpoint reconstructions; a linear function's extremes over an index
  // range sit at the range ends, so these pin min/max/max_abs exactly.
  const double v_first = s.ValueAt(first);
  const double v_last = s.ValueAt(last);
  agg.min = std::min(v_first, v_last);
  agg.max = std::max(v_first, v_last);
  agg.max_abs = std::max(std::fabs(v_first), std::fabs(v_last));
  // Σ v̂(k) for k in [first, last]: n·anchor + slope·Σk, with
  // Σk = (first + last)·n / 2 (one of the factors is even).
  const uint64_t index_sum_2 = (static_cast<uint64_t>(first) + last) * n;
  agg.sum = static_cast<double>(n) * s.anchor +
            s.slope * (static_cast<double>(index_sum_2) * 0.5);
  // Σ|v̂|: exact (|Σ v̂|) when the line keeps one sign over the range, else
  // over-approximated by n·max|v̂| — an upper bound is all the error report
  // needs, and crossing segments are rare at real bounds.
  if ((v_first >= 0.0 && v_last >= 0.0) || (v_first <= 0.0 && v_last <= 0.0)) {
    agg.abs_sum = std::fabs(agg.sum);
  } else {
    agg.abs_sum = static_cast<double>(n) * agg.max_abs;
  }
  return agg;
}

}  // namespace lossyts::store
