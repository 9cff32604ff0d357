#ifndef LOSSYTS_STREAM_FEATURES_H_
#define LOSSYTS_STREAM_FEATURES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "compress/segment_model.h"
#include "core/status.h"

namespace lossyts::stream {

/// Per-segment features derived from the decoded model alone (no blob
/// bytes): the CAMEO/ModelarDB observation that segment coefficients are a
/// free summary of the signal.
struct SegmentFeatures {
  uint64_t start_index = 0;
  uint32_t length = 0;
  double level = 0.0;  ///< Mean reconstructed value of the segment.
  double slope = 0.0;  ///< Per-step delta (0 for PMC segments).
};

/// Moment summary over the tracked segment window.
struct FeatureSummary {
  size_t segments = 0;       ///< Segments currently in the window.
  uint64_t total_segments = 0;
  uint64_t total_points = 0;
  double mean_length = 0.0;
  double mean_level = 0.0;
  double level_variance = 0.0;
  double mean_slope = 0.0;
  double slope_variance = 0.0;
};

/// Incremental feature extraction over a StreamingCompressor's segment
/// stream: a bounded window of per-segment slope/length/level statistics
/// plus a bounded ring of reconstructed values for rolling ACF queries
/// (features::Acf), both updated in O(segment length) per segment.
class SegmentFeatureTracker {
 public:
  /// `segment_window`: how many recent segments the summary covers.
  /// `value_window`: how many recent reconstructed points the ACF ring
  /// keeps. Both must be >= 1.
  SegmentFeatureTracker(size_t segment_window, size_t value_window);

  /// Consumes one closed segment.
  void OnSegment(const compress::SegmentModel& segment);

  /// Features of `segment` alone (also what OnSegment records).
  static SegmentFeatures Extract(const compress::SegmentModel& segment);

  FeatureSummary Summary() const;

  /// The reconstructed-value ring, oldest first (at most `value_window`
  /// values).
  std::vector<double> Window() const;

  /// Sample ACF of the current reconstruction window for lags 1..max_lag,
  /// via features::Acf. Fails when the window holds fewer than 2 points.
  Result<std::vector<double>> RollingAcf(int max_lag) const;

  uint64_t points() const { return total_points_; }

 private:
  size_t segment_window_;
  size_t value_window_;
  std::deque<SegmentFeatures> segments_;
  std::deque<double> values_;
  uint64_t total_segments_ = 0;
  uint64_t total_points_ = 0;
};

}  // namespace lossyts::stream

#endif  // LOSSYTS_STREAM_FEATURES_H_
