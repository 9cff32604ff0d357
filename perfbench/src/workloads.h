// The four benchmark workloads and the per-layer drivers of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {

/// One closed-loop workload. main() times Setup (several times, reporting
/// the median), runs Measure untraced — or, in the traced run, in untraced
/// and traced quarters for the overhead figure — and then Verify.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs. Returns false (after recording the failure) when
  /// the workload cannot run.
  virtual bool Setup(Ledger& ledger) = 0;
  /// Undoes Setup so it can be timed again.
  virtual void Teardown() {}
  /// Runs the loop for about `seconds` and fills the end-to-end metrics
  /// (throughput_per_s, latency_p50_ms, latency_p99_ms and, unless Verify
  /// sizes it after a drain, stored_bytes_per_point) plus the workload's
  /// named details. With
  /// `whole_rounds` the loop always finishes the round of operations it is
  /// in, so every run does whole rounds of the same work.
  virtual void Measure(double seconds, bool whole_rounds, Tracer* tracer,
                       Ledger& ledger, Outcome* out) = 0;
  /// Self-checks on what Measure produced; each failure is a failed op.
  virtual void Verify(Ledger& ledger, Outcome* out) = 0;
};

std::unique_ptr<Workload> MakeGridWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeSweepWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeIngestWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeQueryWorkload(const RunConfig& config);

/// Per-layer drivers of the traced run. Each calls the layers' public
/// functions directly under spans and fills its per-layer metrics. Every
/// traced run executes all four, so every run reports every per-layer
/// metric.
void GridLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                MetricMap* out);
void SweepLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                 MetricMap* out);
void IngestLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                  MetricMap* out);
void QueryLayers(const RunConfig& config, Ledger& ledger, Tracer& tracer,
                 MetricMap* out);

/// Fills the four shared latency/throughput metrics from op samples.
void SummarizeOps(const std::vector<double>& latency_ms, double units,
                  double elapsed_s, MetricMap* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
