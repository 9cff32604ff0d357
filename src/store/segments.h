#ifndef LOSSYTS_STORE_SEGMENTS_H_
#define LOSSYTS_STORE_SEGMENTS_H_

#include <cstdint>

#include "compress/segment_model.h"

namespace lossyts::store {

/// Closed-form aggregate of a segment restricted to local offsets
/// [first, last], both inclusive and both < length.
struct SegmentAggregate {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Upper bound on Σ|v̂| over the range (exact unless a Swing segment
  /// crosses zero inside it); scaled by ε/(1−ε) this bounds the aggregate's
  /// deviation from the raw data (query.h).
  double abs_sum = 0.0;
  double max_abs = 0.0;  ///< max|v̂| over the range (exact: linear extremes).
  uint64_t count = 0;
};

SegmentAggregate AggregateSegment(const compress::SegmentModel& s,
                                  uint32_t first, uint32_t last);

}  // namespace lossyts::store

#endif  // LOSSYTS_STORE_SEGMENTS_H_
