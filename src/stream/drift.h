#ifndef LOSSYTS_STREAM_DRIFT_H_
#define LOSSYTS_STREAM_DRIFT_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "analysis/change_detection.h"
#include "compress/segment_model.h"
#include "core/status.h"

namespace lossyts::stream {

/// Online two-sided CUSUM, the streaming form of analysis::DetectChanges.
///
/// Contract: feeding a series point-by-point through Update()+Finish()
/// reports exactly the change indices DetectChanges would return for the
/// same vector and options — this equality is a pinned regression oracle
/// (drift_test.cc, bench/futurework_change_detection.cc).
///
/// The one wrinkle is the offline detector's re-anchoring: after an alarm at
/// index i it recomputes the baseline over the *future* window
/// [i, min(n, i+warmup)). The online detector therefore buffers up to
/// `warmup` points after each alarm before resuming, so change indices are
/// confirmed with a latency of at most `warmup` points — never reordered,
/// never different from offline. Memory is O(warmup).
class OnlineCusum {
 public:
  explicit OnlineCusum(const analysis::CusumOptions& options);

  /// Feeds one point; appends any newly confirmed change indices (of
  /// previously fed points) to `*changes`.
  void Update(double value, std::vector<size_t>* changes);

  /// End of stream: resolves a pending re-anchor against the truncated
  /// window and appends the remaining change indices. Fails with the same
  /// FailedPrecondition as DetectChanges when the stream was shorter than
  /// warmup + 2 points. The detector is finished afterwards.
  Status Finish(std::vector<size_t>* changes);

  /// Points fed so far.
  size_t points() const { return n_; }

 private:
  struct Item {
    size_t index;
    double value;
  };

  void Baseline(const std::vector<double>& window);
  void DrainQueue(std::vector<size_t>* changes);

  analysis::CusumOptions options_;
  size_t n_ = 0;
  std::vector<double> warm_;
  double mean_ = 0.0;
  double sd_ = 1.0;
  double pos_ = 0.0;
  double neg_ = 0.0;
  bool has_change_ = false;
  size_t last_change_ = 0;
  bool reanchor_pending_ = false;
  size_t reanchor_index_ = 0;
  std::vector<double> reanchor_buf_;
  std::deque<Item> queue_;
};

/// Page–Hinkley mean-shift detector: a cheaper alternative fed once per
/// *segment* statistic instead of once per point. Two-sided (tracks the
/// running minimum and maximum of the cumulative deviation), with an alarm
/// threshold in absolute units of the statistic.
struct PageHinkleyOptions {
  double delta = 0.005;     ///< Magnitude tolerance per step.
  double lambda = 50.0;     ///< Alarm threshold on the cumulative deviation.
  size_t warmup = 30;       ///< Updates before alarms are allowed.
  size_t min_spacing = 25;  ///< Minimum updates between alarms.
};

class PageHinkley {
 public:
  explicit PageHinkley(const PageHinkleyOptions& options);

  /// Feeds one statistic; true when this update raises an alarm. The
  /// detector re-anchors (running mean and sums reset) after every alarm.
  bool Update(double value);

  /// Updates fed so far.
  size_t updates() const { return updates_; }

 private:
  PageHinkleyOptions options_;
  size_t updates_ = 0;      ///< Global update counter (for spacing).
  size_t since_reset_ = 0;  ///< Updates since the last (re-)anchor.
  bool has_alarm_ = false;
  size_t last_alarm_ = 0;
  double mean_ = 0.0;
  double cum_ = 0.0;
  double min_cum_ = 0.0;
  double max_cum_ = 0.0;
};

/// Drift detection over a StreamingCompressor's segment stream — the CAMEO
/// observation that the compressed representation itself carries the drift
/// signal, so no blob is ever decoded.
struct SegmentDriftOptions {
  enum class Mode {
    /// Per-point CUSUM over the segments' reconstructed values. Exactly
    /// equal to running analysis::DetectChanges over the decompressed
    /// series (the reconstruction IS the decode, bit for bit).
    kPointCusum,
    /// Page–Hinkley over each segment's mean level — one update per
    /// segment, the nearly-free variant.
    kSegmentLevelPh,
    /// Page–Hinkley over each segment's slope.
    kSegmentSlopePh,
  };
  Mode mode = Mode::kPointCusum;
  analysis::CusumOptions cusum;
  PageHinkleyOptions page_hinkley;
};

class SegmentDriftDetector {
 public:
  explicit SegmentDriftDetector(const SegmentDriftOptions& options);

  /// Consumes one closed segment; appends the *point indices* of any alarms
  /// (for the segment modes, the index of the segment's last point).
  void OnSegment(const compress::SegmentModel& segment,
                 std::vector<size_t>* alarms);

  /// Flushes the point-level detector at end of stream (no-op for the
  /// segment modes).
  Status Finish(std::vector<size_t>* alarms);

  /// Points covered by the segments consumed so far.
  uint64_t points() const { return points_; }

 private:
  SegmentDriftOptions options_;
  OnlineCusum cusum_;
  PageHinkley page_hinkley_;
  uint64_t points_ = 0;
};

}  // namespace lossyts::stream

#endif  // LOSSYTS_STREAM_DRIFT_H_
