#include "eval/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "compress/pipeline.h"
#include "core/failpoint.h"
#include "data/datasets.h"
#include "forecast/registry.h"
#include "zip/crc32.h"

namespace lossyts::eval {

namespace {

constexpr char kManifestPrefixV2[] = "#lossyts-grid-checkpoint v2 options=";
constexpr char kMetricsField[] = " metrics=";
constexpr char kCompleteFooter[] = "#complete";

std::string RowCrcHex(const std::string& row) {
  char hex[9];
  std::snprintf(
      hex, sizeof(hex), "%08x",
      zip::ComputeCrc32(
          {reinterpret_cast<const uint8_t*>(row.data()), row.size()}));
  return hex;
}

std::string JoinMetricNames(const std::vector<std::string>& names) {
  std::string joined;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) joined += ';';
    joined += names[i];
  }
  return joined;
}

std::string HeaderLine(const std::vector<std::string>& metric_names) {
  std::string header = "dataset,model,compressor,error_bound,seed";
  for (const std::string& name : metric_names) header += ',' + name;
  header +=
      ",tfe,te_nrmse,te_rmse,compression_ratio,segment_count,error_code,"
      "attempts,error";
  return header;
}

void AppendDouble(std::string& out, double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out += buffer;
  out += '|';
}

// Parses one "crc,row" line into checkpoint.records. Returns false when the
// scan must stop: the complete footer, a torn or malformed line, a CRC
// mismatch, or a row whose metric arity differs from the resuming sweep's —
// everything salvaged so far stays valid.
bool ParseLine(const std::string& line, size_t metric_arity,
               GridCheckpoint& checkpoint) {
  if (line == kCompleteFooter) {
    checkpoint.complete = true;
    return false;
  }
  if (line.size() < 10 || line[8] != ',') return false;
  const std::string hex = line.substr(0, 8);
  char* end = nullptr;
  const unsigned long crc = std::strtoul(hex.c_str(), &end, 16);
  if (end != hex.c_str() + 8) return false;
  const std::string row = line.substr(9);
  if (zip::ComputeCrc32({reinterpret_cast<const uint8_t*>(row.data()),
                         row.size()}) != static_cast<uint32_t>(crc)) {
    return false;
  }
  Result<GridRecord> record = ParseGridRow(row);
  if (!record.ok()) return false;
  if (record->metrics.size() != metric_arity) return false;
  checkpoint.records.push_back(std::move(*record));
  return true;
}

}  // namespace

uint32_t GridOptionsHash(const GridOptions& options) {
  // Serialize the resolved sweep definition; resolving the empty-list
  // defaults first means "all datasets" and an explicit full list hash
  // identically.
  std::string repr = "v1|";
  const std::vector<std::string>& datasets =
      options.datasets.empty() ? data::DatasetNames() : options.datasets;
  const std::vector<std::string>& models =
      options.models.empty() ? forecast::ModelNames() : options.models;
  const std::vector<std::string>& compressors =
      options.compressors.empty() ? compress::LossyCompressorNames()
                                  : options.compressors;
  const std::vector<double>& error_bounds =
      options.error_bounds.empty() ? compress::PaperErrorBounds()
                                   : options.error_bounds;
  for (const std::string& d : datasets) repr += d + '|';
  for (const std::string& m : models) repr += m + '|';
  for (const std::string& c : compressors) repr += c + '|';
  for (double eb : error_bounds) AppendDouble(repr, eb);
  for (uint64_t seed : options.seeds) repr += std::to_string(seed) + '|';
  AppendDouble(repr, options.data.length_fraction);
  repr += std::to_string(options.data.seed) + '|';
  const forecast::ForecastConfig& f = options.forecast;
  repr += std::to_string(f.input_length) + '|' + std::to_string(f.horizon) +
          '|' + std::to_string(f.season_length) + '|' +
          std::to_string(f.seed) + '|' + std::to_string(f.max_epochs) + '|' +
          std::to_string(f.early_stop_patience) + '|' +
          std::to_string(f.max_train_windows) + '|' +
          std::to_string(f.batch_size) + '|';
  AppendDouble(repr, f.dropout);
  repr += std::to_string(options.scenario.eval_stride) + '|' +
          std::to_string(options.scenario.max_eval_windows);
  // Store-sourced sweeps measure a different compression ratio (serving
  // ratio, see eval/store_source.h), so they must not share a checkpoint
  // with recompression sweeps. Appended only when set so every pre-existing
  // cache keeps its hash.
  if (!options.store_dir.empty()) repr += "|store=" + options.store_dir;
  // Extra metrics change every record's arity; appended only when the
  // resolved list goes beyond the pinned four so every pre-existing cache
  // keeps its hash. An unresolvable list (unknown metric name) hashes the
  // raw spelling — the sweep itself rejects it before any cell runs.
  if (!options.metrics.empty()) {
    Result<std::vector<std::string>> resolved =
        ResolveMetricNames(options.metrics);
    const std::vector<std::string>& names =
        resolved.ok() ? *resolved : options.metrics;
    if (names != PinnedForecastMetrics()) {
      repr += "|metrics=" + JoinMetricNames(names);
    }
  }
  return zip::ComputeCrc32(
      {reinterpret_cast<const uint8_t*>(repr.data()), repr.size()});
}

Result<GridCheckpoint> LoadGridCheckpoint(
    const std::string& path, uint32_t options_hash,
    const std::vector<std::string>& metric_names) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("no grid checkpoint at " + path);
  }
  std::string line;
  if (!std::getline(file, line)) {
    return Status::Corruption(path + " is empty");
  }
  GridCheckpoint checkpoint;
  if (line.rfind(kManifestPrefixV2, 0) != 0) {
    checkpoint.compatible = false;
    checkpoint.reason = "no v2 checkpoint manifest";
    return checkpoint;
  }
  char* end = nullptr;
  const std::string rest = line.substr(std::strlen(kManifestPrefixV2));
  const unsigned long stored = std::strtoul(rest.c_str(), &end, 16);
  if (end == rest.c_str() || static_cast<uint32_t>(stored) != options_hash) {
    checkpoint.compatible = false;
    checkpoint.reason = "manifest options hash does not match this sweep";
    return checkpoint;
  }
  const size_t at = rest.find(kMetricsField);
  const std::string stored_metrics =
      at == std::string::npos ? std::string()
                              : rest.substr(at + std::strlen(kMetricsField));
  if (stored_metrics != JoinMetricNames(metric_names)) {
    checkpoint.compatible = false;
    checkpoint.reason = "checkpoint computes metrics [" + stored_metrics +
                        "]; this sweep needs [" +
                        JoinMetricNames(metric_names) + "]";
    return checkpoint;
  }

  while (std::getline(file, line)) {
    if (line.rfind("dataset,", 0) == 0) continue;  // Human-readable header.
    if (!ParseLine(line, metric_names.size(), checkpoint)) break;
  }
  return checkpoint;
}

Status GridCheckpointWriter::Open(const std::string& path,
                                  uint32_t options_hash,
                                  const std::vector<GridRecord>& salvaged,
                                  const std::vector<std::string>& metric_names) {
  path_ = path;
  file_.open(path, std::ios::trunc);
  if (!file_.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  char manifest[64];
  std::snprintf(manifest, sizeof(manifest), "%s%08x", kManifestPrefixV2,
                options_hash);
  file_ << manifest << kMetricsField << JoinMetricNames(metric_names) << '\n'
        << HeaderLine(metric_names) << '\n';
  for (const GridRecord& record : salvaged) {
    const std::string row = FormatGridRow(record);
    file_ << RowCrcHex(row) << ',' << row << '\n';
  }
  file_.flush();
  if (!file_.good()) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Status GridCheckpointWriter::Append(const GridRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  LOSSYTS_FAILPOINT("cache_write");
  if (!file_.is_open()) {
    return Status::FailedPrecondition("checkpoint writer is not open");
  }
  const std::string row = FormatGridRow(record);
  file_ << RowCrcHex(row) << ',' << row << '\n';
  file_.flush();
  if (!file_.good()) return Status::IoError("write to " + path_ + " failed");
  return Status::OK();
}

Status GridCheckpointWriter::MarkComplete() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!file_.is_open()) {
    return Status::FailedPrecondition("checkpoint writer is not open");
  }
  file_ << kCompleteFooter << '\n';
  file_.flush();
  if (!file_.good()) return Status::IoError("write to " + path_ + " failed");
  return Status::OK();
}

}  // namespace lossyts::eval
