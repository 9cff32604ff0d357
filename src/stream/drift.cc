#include "stream/drift.h"

#include <algorithm>
#include <cmath>

namespace lossyts::stream {

OnlineCusum::OnlineCusum(const analysis::CusumOptions& options)
    : options_(options) {
  warm_.reserve(options_.warmup);
}

void OnlineCusum::Baseline(const std::vector<double>& window) {
  // Identical arithmetic to DetectChanges' baseline lambda: mean first, then
  // a sigma floored by min_sigma and 1e-9.
  double m = 0.0;
  for (const double v : window) m += v;
  m /= static_cast<double>(window.size());
  double ss = 0.0;
  for (const double v : window) ss += (v - m) * (v - m);
  mean_ = m;
  sd_ = std::max({std::sqrt(ss / static_cast<double>(window.size())),
                  options_.min_sigma, 1e-9});
}

void OnlineCusum::Update(double value, std::vector<size_t>* changes) {
  const size_t i = n_++;
  if (i < options_.warmup) {
    warm_.push_back(value);
    if (warm_.size() == options_.warmup) {
      Baseline(warm_);
      warm_.clear();
      warm_.shrink_to_fit();
    }
    return;
  }
  queue_.push_back({i, value});
  DrainQueue(changes);
}

Status OnlineCusum::Finish(std::vector<size_t>* changes) {
  if (n_ <= options_.warmup + 1) {
    return Status::FailedPrecondition("series shorter than CUSUM warm-up");
  }
  // Offline truncates the re-anchor window at the end of the series
  // (end = min(n, i + warmup)); resolve any pending window the same way,
  // which can cascade if the replay itself alarms near the end.
  while (reanchor_pending_) {
    if (reanchor_buf_.size() >= 8) Baseline(reanchor_buf_);
    reanchor_pending_ = false;
    for (size_t k = 1; k < reanchor_buf_.size(); ++k) {
      queue_.push_back({reanchor_index_ + k, reanchor_buf_[k]});
    }
    reanchor_buf_.clear();
    DrainQueue(changes);
  }
  return Status::OK();
}

void OnlineCusum::DrainQueue(std::vector<size_t>* changes) {
  while (!queue_.empty()) {
    const Item item = queue_.front();
    queue_.pop_front();
    if (reanchor_pending_) {
      // Buffer the re-anchor window [alarm, alarm + warmup); the alarm point
      // itself was pushed when the alarm fired.
      reanchor_buf_.push_back(item.value);
      if (reanchor_buf_.size() == options_.warmup) {
        // Full window: re-baseline exactly when offline would (window of at
        // least 8 points), then replay the buffered points — offline resumes
        // at alarm + 1 with the new baseline.
        if (options_.warmup >= 8) Baseline(reanchor_buf_);
        reanchor_pending_ = false;
        for (size_t k = reanchor_buf_.size(); k > 1; --k) {
          queue_.push_front(
              {reanchor_index_ + k - 1, reanchor_buf_[k - 1]});
        }
        reanchor_buf_.clear();
      }
      continue;
    }
    const double z = (item.value - mean_) / sd_;
    pos_ = std::max(0.0, pos_ + z - options_.drift);
    neg_ = std::max(0.0, neg_ - z - options_.drift);
    const bool alarm = pos_ > options_.threshold || neg_ > options_.threshold;
    if (alarm && (!has_change_ ||
                  item.index - last_change_ >= options_.min_spacing)) {
      if (changes != nullptr) changes->push_back(item.index);
      has_change_ = true;
      last_change_ = item.index;
      pos_ = 0.0;
      neg_ = 0.0;
      reanchor_pending_ = true;
      reanchor_index_ = item.index;
      reanchor_buf_.clear();
      reanchor_buf_.push_back(item.value);
    } else if (alarm) {
      pos_ = 0.0;
      neg_ = 0.0;
    }
  }
}

PageHinkley::PageHinkley(const PageHinkleyOptions& options)
    : options_(options) {}

bool PageHinkley::Update(double value) {
  const size_t i = updates_++;
  ++since_reset_;
  mean_ += (value - mean_) / static_cast<double>(since_reset_);
  cum_ += value - mean_ - options_.delta;
  min_cum_ = std::min(min_cum_, cum_);
  max_cum_ = std::max(max_cum_, cum_);
  const bool exceeded = cum_ - min_cum_ > options_.lambda ||
                        max_cum_ - cum_ > options_.lambda;
  const bool warmed = since_reset_ >= options_.warmup;
  const bool spaced = !has_alarm_ || i - last_alarm_ >= options_.min_spacing;
  if (exceeded && warmed && spaced) {
    has_alarm_ = true;
    last_alarm_ = i;
    since_reset_ = 0;
    mean_ = 0.0;
    cum_ = 0.0;
    min_cum_ = 0.0;
    max_cum_ = 0.0;
    return true;
  }
  if (exceeded) {
    // Suppressed alarm: reset the sums like CUSUM does, keep the mean.
    cum_ = 0.0;
    min_cum_ = 0.0;
    max_cum_ = 0.0;
  }
  return false;
}

SegmentDriftDetector::SegmentDriftDetector(const SegmentDriftOptions& options)
    : options_(options),
      cusum_(options.cusum),
      page_hinkley_(options.page_hinkley) {}

void SegmentDriftDetector::OnSegment(const compress::SegmentModel& segment,
                                     std::vector<size_t>* alarms) {
  switch (options_.mode) {
    case SegmentDriftOptions::Mode::kPointCusum:
      for (size_t k = 0; k < segment.length; ++k) {
        cusum_.Update(segment.ValueAt(k), alarms);
      }
      break;
    case SegmentDriftOptions::Mode::kSegmentLevelPh:
    case SegmentDriftOptions::Mode::kSegmentSlopePh: {
      const double stat =
          options_.mode == SegmentDriftOptions::Mode::kSegmentLevelPh
              ? segment.MeanLevel()
              : segment.slope;
      if (page_hinkley_.Update(stat) && alarms != nullptr) {
        alarms->push_back(static_cast<size_t>(segment.start) +
                          segment.length - 1);
      }
      break;
    }
  }
  points_ += segment.length;
}

Status SegmentDriftDetector::Finish(std::vector<size_t>* alarms) {
  if (options_.mode == SegmentDriftOptions::Mode::kPointCusum) {
    return cusum_.Finish(alarms);
  }
  return Status::OK();
}

}  // namespace lossyts::stream
