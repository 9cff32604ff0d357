// Post-paper codec study: LFZip (NLMS prediction + quantization, from the
// LFZip paper) and CAMEO (ACF-guarded line simplification, from the CAMEO
// paper) swept over the paper's 13 §3.2 error bounds on the forecasting
// grid, asking the paper's §4.3 question of the two codecs the paper did
// not test: where is the elbow of the TFE-vs-TE curve, and what CR does
// each codec buy at that elbow, per deep forecasting model?
//
// Self-checking (plain binary, exits non-zero on breach):
//   * the sweep runs twice, at --jobs 1 and at --jobs N, and every produced
//     GridRecord must be byte-identical between the two runs (the grid's
//     determinism contract, here checked end to end through the new codecs);
//   * every cell must complete — a failed fit or transform fails the bench;
//   * each codec must yield an elbow from at least 5 strictly-increasing TE
//     points (otherwise the TFE/TE curve is degenerate and the run fails).
//
// Usage: futurework_codec_elbows [--jobs N] (default 2)

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/kneedle.h"
#include "bench_common.h"
#include "compress/pipeline.h"
#include "eval/grid.h"
#include "eval/report.h"
#include "forecast/registry.h"

using namespace lossyts;

namespace {

// The five deep forecasters (DLinear, GRU, Informer, NBeats, Transformer):
// everything the registry offers except the classical Arima/GBoost pair.
std::vector<std::string> DeepModels() {
  std::vector<std::string> models;
  for (const std::string& name : forecast::ModelNames()) {
    if (forecast::IsDeepModel(name)) models.push_back(name);
  }
  return models;
}

eval::GridOptions StudyOptions(int jobs) {
  eval::GridOptions options;
  options.datasets = {"ETTm2"};
  options.models = DeepModels();
  options.compressors = {"LFZIP", "CAMEO"};
  options.error_bounds = compress::PaperErrorBounds();
  options.seeds = {1};
  options.data.length_fraction = 0.05;
  options.jobs = jobs;
  return options;
}

std::string SerializeRecords(const std::vector<eval::GridRecord>& records) {
  std::string out;
  for (const eval::GridRecord& r : records) {
    out += eval::FormatGridRow(r);
    out += '\n';
  }
  return out;
}

// Per-bound aggregates of one codec's cells: TE and CR are properties of the
// (dataset, codec, eb) transform and so identical across models; TFE is kept
// per model and also averaged.
struct BoundPoint {
  double eb = 0.0;
  double te = 0.0;
  double cr = 0.0;
  double mean_tfe = 0.0;
  std::map<std::string, double> model_tfe;
};

std::vector<BoundPoint> CollectCurve(
    const std::vector<eval::GridRecord>& records, const std::string& codec) {
  std::map<double, BoundPoint> by_eb;
  for (const eval::GridRecord& r : records) {
    if (r.compressor != codec) continue;
    BoundPoint& p = by_eb[r.error_bound];
    p.eb = r.error_bound;
    p.te = r.te_nrmse;
    p.cr = r.compression_ratio;
    p.model_tfe[r.model] = r.tfe;
  }
  std::vector<BoundPoint> curve;
  curve.reserve(by_eb.size());
  for (auto& [eb, p] : by_eb) {
    std::vector<double> tfes;
    for (const auto& [model, tfe] : p.model_tfe) tfes.push_back(tfe);
    p.mean_tfe = eval::MeanOf(tfes);
    curve.push_back(std::move(p));
  }
  return curve;  // std::map iteration: ascending eb.
}

// Elbow of the mean-TFE-versus-TE curve (the paper's §4.3.2 analysis, run
// here on a post-paper codec). TE must be strictly increasing for Kneedle,
// so the curve is truncated at the end of its strictly-rising TE prefix
// (low-rIQD saturation flattens the tail, as in Table 5). Returns the index
// into `curve`, or a negative value when no usable elbow exists.
int FindElbowIndex(const std::vector<BoundPoint>& curve) {
  size_t cut = 1;
  while (cut < curve.size() &&
         curve[cut].te > curve[cut - 1].te * (1.0 + 1e-9)) {
    ++cut;
  }
  if (cut < 5) return -1;
  std::vector<double> x, y;
  for (size_t i = 0; i < cut; ++i) {
    x.push_back(curve[i].te);
    y.push_back(curve[i].mean_tfe);
  }
  analysis::KneedleOptions options;
  options.curve = analysis::KneedleCurve::kConvexIncreasing;
  Result<analysis::KneePoint> knee = analysis::FindKnee(x, y, options);
  if (!knee.ok()) {
    options.curve = analysis::KneedleCurve::kConcaveIncreasing;
    knee = analysis::FindKnee(x, y, options);
  }
  if (knee.ok()) return static_cast<int>(knee->index);
  // Degenerate Kneedle (e.g. near-linear TFE growth): fall back to the point
  // of maximal discrete second difference, as Table 5 does.
  int best = 1;
  double best_curvature = -1e18;
  for (size_t i = 1; i + 1 < cut; ++i) {
    const double curvature = (curve[i + 1].mean_tfe - curve[i].mean_tfe) -
                             (curve[i].mean_tfe - curve[i - 1].mean_tfe);
    if (curvature > best_curvature) {
      best_curvature = curvature;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = bench::ParseIntFlag(argc, argv, "--jobs", 2);

  // Reference run at --jobs 1, then the parallel run; the grid contract says
  // scheduling must not leak into the records, and FormatGridRow prints the
  // full double bits, so a single ULP of divergence fails the comparison.
  Result<std::vector<eval::GridRecord>> sequential =
      eval::RunGrid(StudyOptions(1));
  if (!sequential.ok()) {
    std::fprintf(stderr, "futurework_codec_elbows: grid (jobs 1) failed: %s\n",
                 sequential.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<eval::GridRecord>> parallel =
      eval::RunGrid(StudyOptions(jobs));
  if (!parallel.ok()) {
    std::fprintf(stderr, "futurework_codec_elbows: grid (jobs %d) failed: %s\n",
                 jobs, parallel.status().ToString().c_str());
    return 1;
  }
  if (SerializeRecords(*sequential) != SerializeRecords(*parallel)) {
    std::fprintf(stderr,
                 "futurework_codec_elbows: records differ between --jobs 1 "
                 "and --jobs %d\n",
                 jobs);
    return 1;
  }
  bool ok = true;
  for (const eval::GridRecord& r : *sequential) {
    if (r.failed()) {
      std::fprintf(stderr,
                   "futurework_codec_elbows: cell %s/%s eb=%g failed: %s\n",
                   r.model.c_str(), r.compressor.c_str(), r.error_bound,
                   r.error.c_str());
      ok = false;
    }
  }
  if (!ok) return 1;

  std::printf(
      "=== Post-paper codecs on ETTm2: TFE-vs-TE elbows (Kneedle) across "
      "the five deep forecasters ===\n");
  for (const std::string codec : {"LFZIP", "CAMEO"}) {
    const std::vector<BoundPoint> curve = CollectCurve(*sequential, codec);
    const int elbow = FindElbowIndex(curve);
    if (elbow < 0) {
      std::fprintf(stderr,
                   "futurework_codec_elbows: %s TE curve has fewer than 5 "
                   "strictly increasing points — no elbow\n",
                   codec.c_str());
      return 1;
    }

    std::printf("\n--- %s ---\n\n", codec.c_str());
    eval::TableWriter table({"eb", "TE(NRMSE)", "CR", "TFE(mean)", ""});
    for (size_t i = 0; i < curve.size(); ++i) {
      table.AddRow({eval::FormatDouble(curve[i].eb, 2),
                    eval::FormatDouble(curve[i].te, 4),
                    eval::FormatDouble(curve[i].cr, 2),
                    eval::FormatDouble(curve[i].mean_tfe, 3),
                    i == static_cast<size_t>(elbow) ? "<- elbow" : ""});
    }
    table.Print();

    const BoundPoint& e = curve[static_cast<size_t>(elbow)];
    std::printf("\n%s elbow: eb %s, TE %s, CR %s; per-model TFE there:\n",
                codec.c_str(), eval::FormatDouble(e.eb, 2).c_str(),
                eval::FormatDouble(e.te, 4).c_str(),
                eval::FormatDouble(e.cr, 2).c_str());
    eval::TableWriter models({"model", "TFE"});
    for (const auto& [model, tfe] : e.model_tfe) {
      models.AddRow({model, eval::FormatDouble(tfe, 3)});
    }
    models.Print();
  }
  std::printf(
      "\nfuturework_codec_elbows: OK (records byte-identical at --jobs 1 "
      "and --jobs %d, %zu cells clean)\n",
      jobs, sequential->size());
  return 0;
}
