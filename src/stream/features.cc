#include "stream/features.h"

#include <algorithm>

#include "features/acf.h"

namespace lossyts::stream {

SegmentFeatureTracker::SegmentFeatureTracker(size_t segment_window,
                                             size_t value_window)
    : segment_window_(std::max<size_t>(segment_window, 1)),
      value_window_(std::max<size_t>(value_window, 1)) {}

SegmentFeatures SegmentFeatureTracker::Extract(
    const compress::SegmentModel& segment) {
  SegmentFeatures f;
  f.start_index = segment.start;
  f.length = segment.length;
  f.level = segment.MeanLevel();
  f.slope = segment.slope;
  return f;
}

void SegmentFeatureTracker::OnSegment(
    const compress::SegmentModel& segment) {
  segments_.push_back(Extract(segment));
  while (segments_.size() > segment_window_) segments_.pop_front();
  for (size_t k = 0; k < segment.length; ++k) {
    values_.push_back(segment.ValueAt(k));
    if (values_.size() > value_window_) values_.pop_front();
  }
  ++total_segments_;
  total_points_ += segment.length;
}

FeatureSummary SegmentFeatureTracker::Summary() const {
  FeatureSummary s;
  s.segments = segments_.size();
  s.total_segments = total_segments_;
  s.total_points = total_points_;
  if (segments_.empty()) return s;
  const double n = static_cast<double>(segments_.size());
  for (const SegmentFeatures& f : segments_) {
    s.mean_length += static_cast<double>(f.length);
    s.mean_level += f.level;
    s.mean_slope += f.slope;
  }
  s.mean_length /= n;
  s.mean_level /= n;
  s.mean_slope /= n;
  for (const SegmentFeatures& f : segments_) {
    s.level_variance += (f.level - s.mean_level) * (f.level - s.mean_level);
    s.slope_variance += (f.slope - s.mean_slope) * (f.slope - s.mean_slope);
  }
  s.level_variance /= n;
  s.slope_variance /= n;
  return s;
}

std::vector<double> SegmentFeatureTracker::Window() const {
  return std::vector<double>(values_.begin(), values_.end());
}

Result<std::vector<double>> SegmentFeatureTracker::RollingAcf(
    int max_lag) const {
  if (values_.size() < 2) {
    return Status::FailedPrecondition(
        "ACF needs at least 2 reconstructed points in the window");
  }
  return features::Acf(Window(), max_lag);
}

}  // namespace lossyts::stream
