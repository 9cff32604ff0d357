// Shared plumbing of the perfbench binary: timing, sample summaries, the
// failure ledger every workload's self-checks report into, and the in-memory
// span tracer of the traced run.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (numpy's default) of unsorted samples;
/// 0 for an empty vector.
double Quantile(std::vector<double> samples, double q);

/// Stop rule of a closed loop over rounds of `round` operations, checked
/// before operation `op`. The first operation always runs. Without whole
/// rounds the loop stops once `seconds` have passed; with them it stops only
/// at a round boundary, once another round would end more than half a round
/// past `seconds` — so a run does a whole number of rounds, at least one.
inline bool LoopDone(size_t op, size_t round, double elapsed, double seconds,
                     bool whole_rounds) {
  if (op == 0) return false;
  if (!whole_rounds) return elapsed >= seconds;
  if (op % round != 0) return false;
  const double per_round = elapsed / static_cast<double>(op / round);
  return elapsed + per_round / 2 > seconds;
}

/// One named number with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts attempted and failed operations. A failed self-check is a failed
/// operation; the first few failure messages go to stderr.
class Ledger {
 public:
  void Attempt() { ++attempted_; }
  /// Records one attempted operation that failed, with the reason.
  void Fail(const std::string& what);
  /// One attempted check: fails with `what` unless `ok`.
  void Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::mutex mu_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// Span recorder for the traced run. Spans are kept in memory and written
/// out at exit. Each span has a name, a layer (the src/ module the wrapped
/// call belongs to, or "bench" for the benchmark's own driver code), start
/// and end times, and the span that was open on the same thread when it
/// started (its parent).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int64_t id = 0;
    int64_t parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    uint64_t tid = 0;
    double seconds() const { return (end_us - start_us) * 1e-6; }
  };

  /// RAII span. With a null tracer it only keeps time, so the untraced run
  /// shares the loop code without recording anything.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, std::string name);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span early; returns its duration in seconds.
    double End();

   private:
    Tracer* tracer_;
    Span span_;
    Clock::time_point start_;
    bool open_ = true;
    double seconds_ = 0.0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Sum of durations and count of the spans named `name`.
  double TotalSeconds(const std::string& name) const;
  uint64_t Count(const std::string& name) const;

  /// Self time summed per layer, as (layer, spans, total s, self s) rows.
  struct LayerRow {
    std::string layer;
    uint64_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<LayerRow> LayerTable() const;

  /// Summed self time of every span under the root span named `root`,
  /// excluding spans of layer "bench".
  double LayerSelfUnder(const std::string& root) const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> Spans() const;
  /// Self time per span: its duration minus the time its children cover.
  static std::vector<double> SelfSeconds(const std::vector<Span>& spans);
  void Record(Span span);
  int64_t NextId() { return next_id_.fetch_add(1); }
  double MicrosSinceOrigin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What a workload run hands back to main: the shared end-to-end metrics,
/// plus the workload's own named figures (such as append.p99_ms) and run
/// facts (such as its jobs values) for the detailed result record.
struct Outcome {
  MetricMap end_to_end;
  MetricMap detail;
  std::map<std::string, std::string> info;
};

struct RunConfig {
  uint64_t seed = 1;
  std::string work_dir;  ///< Scratch directory owned by this run.
};

/// Writes `text` as a JSON string literal (quotes included).
std::string JsonString(const std::string& text);

/// Creates `path` and its parents; removes a directory tree.
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
/// Size of a regular file, 0 when missing.
uint64_t FileSize(const std::string& path);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
