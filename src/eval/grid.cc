#include "eval/grid.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "compress/pipeline.h"
#include "core/progress.h"
#include "core/seed.h"
#include "core/thread_pool.h"
#include "eval/artifact_store.h"
#include "eval/checkpoint.h"
#include "eval/grid_stages.h"
#include "forecast/registry.h"

namespace lossyts::eval {

namespace {

std::string KeyOf(const std::string& dataset, const std::string& model,
                  const std::string& compressor, double error_bound,
                  uint64_t seed) {
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "|%.17g|%llu", error_bound,
                static_cast<unsigned long long>(seed));
  return dataset + '|' + model + '|' + compressor + suffix;
}

bool ParseDoubleField(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

bool ParseU64Field(const std::string& s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0';
}

bool ParseI32Field(const std::string& s, int32_t* out) {
  char* end = nullptr;
  *out = static_cast<int32_t>(std::strtol(s.c_str(), &end, 10));
  return end != s.c_str() && *end == '\0';
}

void AppendG17(std::string& out, double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out += buffer;
}

// Single-writer channel in front of the checkpoint sink: concurrent cells
// append through it, one at a time, and the first sink failure latches and
// aborts the rest of the sweep (an unwritable checkpoint must not silently
// degrade into an unresumable run).
class RecordChannel {
 public:
  explicit RecordChannel(const std::function<Status(const GridRecord&)>& sink)
      : sink_(sink) {}

  void Emit(const GridRecord& record) {
    if (!sink_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok()) return;
    status_ = sink_(record);
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !status_.ok();
  }

  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  const std::function<Status(const GridRecord&)>& sink_;
  mutable std::mutex mu_;
  Status status_;
};

// The sweep compiled into an explicit artifact DAG. Cells are enumerated in
// canonical grid order up front; each missing cell carries a dependency
// counter (fit, plus transform for compressed cells) and is scheduled the
// moment its last input artifact is published. Salvaged cells have no node:
// their records are spliced straight into the canonical output slot.
struct CellNode {
  CellSpec spec;
  size_t fit = 0;        // Index into GridPlan::fits.
  size_t transform = 0;  // Index into GridPlan::transforms; unused for baseline.
};

struct TransformNode {
  size_t dataset = 0;  // Index into GridPlan::datasets.
  std::string key;     // dataset|compressor|eb
  std::string compressor;
  double error_bound = 0.0;
  std::vector<size_t> cells;  // Dependent cell indices.
};

struct FitNode {
  size_t dataset = 0;
  std::string key;  // dataset|model|seed
  std::string model;
  uint64_t seed = 0;
  const GridRecord* salvaged_baseline = nullptr;
  std::vector<size_t> cells;  // Every missing cell of the group.
};

struct DatasetNode {
  std::string name;
  bool needed = false;
  std::vector<size_t> transforms;
  std::vector<size_t> fits;
};

}  // namespace

std::string CellKey(const GridRecord& record) {
  return KeyOf(record.dataset, record.model, record.compressor,
               record.error_bound, record.seed);
}

uint64_t RetrySeed(uint64_t seed, int attempt) {
  if (attempt <= 0) return seed;
  return MixSeed(seed, static_cast<uint64_t>(attempt));
}

std::vector<const GridRecord*> FailedRecords(
    const std::vector<GridRecord>& records) {
  std::vector<const GridRecord*> failed;
  for (const GridRecord& r : records) {
    if (r.failed()) failed.push_back(&r);
  }
  return failed;
}

Result<std::vector<GridRecord>> RunGrid(const GridOptions& options) {
  return RunGridResumable(options, {}, nullptr);
}

Result<std::vector<GridRecord>> RunGridResumable(
    const GridOptions& options, const std::vector<GridRecord>& existing,
    const std::function<Status(const GridRecord&)>& on_record) {
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
  const int max_attempts = 1 + std::max(0, options.max_cell_retries);

  // Unknown compressor names are configuration errors that would fail every
  // transform identically; reject them before any work is scheduled.
  for (const std::string& name : compressors) {
    Result<std::unique_ptr<compress::Compressor>> compressor =
        compress::MakeCompressor(name);
    if (!compressor.ok()) return compressor.status();
  }
  // Same for the metric list: every cell evaluates the same resolved names,
  // so an unknown metric — or one the grid cannot feed (coverage needs
  // prediction intervals; cells produce point forecasts) — is a
  // configuration error, not a per-cell failure.
  Result<std::vector<std::string>> resolved_metrics =
      ResolveMetricNames(options.metrics);
  if (!resolved_metrics.ok()) return resolved_metrics.status();
  const std::vector<std::string> metric_names = std::move(*resolved_metrics);
  for (const std::string& name : metric_names) {
    Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
    if (!spec.ok()) return spec.status();
    if (spec->needs_interval) {
      return Status::InvalidArgument(
          "metric '" + name +
          "' needs prediction intervals; the grid evaluates point forecasts");
    }
  }

  std::unordered_map<std::string, size_t> done;
  done.reserve(existing.size());
  for (size_t i = 0; i < existing.size(); ++i) {
    done.emplace(CellKey(existing[i]), i);
  }
  auto salvaged = [&](const std::string& dataset, const std::string& model,
                      const std::string& compressor, double eb,
                      uint64_t seed) -> const GridRecord* {
    auto it = done.find(KeyOf(dataset, model, compressor, eb, seed));
    return it == done.end() ? nullptr : &existing[it->second];
  };

  // ---- Compile the sweep into the artifact DAG (canonical cell order). ----
  std::vector<CellNode> cells;
  std::vector<TransformNode> transforms;
  std::vector<FitNode> fits;
  std::vector<DatasetNode> dataset_nodes(datasets.size());
  std::vector<GridRecord> results;
  std::vector<char> missing;  // Parallel to results: 1 = has a CellNode.

  std::unordered_map<std::string, size_t> transform_index;
  for (size_t di = 0; di < datasets.size(); ++di) {
    const std::string& dataset_name = datasets[di];
    DatasetNode& dnode = dataset_nodes[di];
    dnode.name = dataset_name;
    for (const std::string& model_name : models) {
      for (uint64_t seed : options.seeds) {
        const size_t fit_index = fits.size();
        FitNode fnode;
        fnode.dataset = di;
        fnode.key = dataset_name + '|' + model_name + '|' +
                    std::to_string(seed);
        fnode.model = model_name;
        fnode.seed = seed;
        fnode.salvaged_baseline =
            salvaged(dataset_name, model_name, "NONE", 0.0, seed);

        auto add_cell = [&](const std::string& compressor, double eb,
                            const GridRecord* existing_record) {
          if (existing_record != nullptr) {
            results.push_back(*existing_record);
            missing.push_back(0);
            return;
          }
          CellNode cell;
          cell.spec = {dataset_name, model_name, compressor, eb, seed};
          cell.fit = fit_index;
          if (compressor != "NONE") {
            const std::string tkey = [&] {
              char suffix[32];
              std::snprintf(suffix, sizeof(suffix), "|%.17g", eb);
              return dataset_name + '|' + compressor + suffix;
            }();
            auto [it, inserted] =
                transform_index.emplace(tkey, transforms.size());
            if (inserted) {
              TransformNode tnode;
              tnode.dataset = di;
              tnode.key = tkey;
              tnode.compressor = compressor;
              tnode.error_bound = eb;
              transforms.push_back(std::move(tnode));
            }
            cell.transform = it->second;
            transforms[it->second].cells.push_back(results.size());
          }
          fnode.cells.push_back(results.size());
          results.emplace_back();
          missing.push_back(1);
          cells.push_back(std::move(cell));
          dnode.needed = true;
        };

        add_cell("NONE", 0.0, fnode.salvaged_baseline);
        for (const std::string& compressor_name : compressors) {
          for (double eb : error_bounds) {
            add_cell(compressor_name, eb,
                     salvaged(dataset_name, model_name, compressor_name, eb,
                              seed));
          }
        }
        if (!fnode.cells.empty()) {
          dnode.fits.push_back(fits.size());
          fits.push_back(std::move(fnode));
        }
      }
    }
  }
  // results/missing are parallel to the canonical cell positions, but
  // `cells` holds only missing positions; map from cells -> result slots.
  std::vector<size_t> cell_slot;
  cell_slot.reserve(cells.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (missing[i]) cell_slot.push_back(i);
  }
  for (size_t ti = 0; ti < transforms.size(); ++ti) {
    dataset_nodes[transforms[ti].dataset].transforms.push_back(ti);
  }

  // Dependency counters: fit, plus transform for compressed cells. The
  // transform/fit nodes record *result-slot* indices; remap to cell indices.
  std::unordered_map<size_t, size_t> slot_to_cell;
  for (size_t ci = 0; ci < cell_slot.size(); ++ci) {
    slot_to_cell.emplace(cell_slot[ci], ci);
  }
  std::vector<std::atomic<int>> deps(cells.size());
  for (size_t ci = 0; ci < cells.size(); ++ci) {
    deps[ci].store(cells[ci].spec.is_baseline() ? 1 : 2,
                   std::memory_order_relaxed);
  }

  // ---- Execute on the shared pool. ----
  ArtifactStore<DatasetArtifact> dataset_store;
  ArtifactStore<TransformArtifact> transform_store;
  ArtifactStore<FitArtifact> fit_store;
  RecordChannel channel(on_record);
  std::vector<Status> dataset_status(datasets.size());
  std::vector<Status> fit_config_status(fits.size());
  std::atomic<bool> config_abort{false};

  ThreadPool pool(options.jobs);

  auto run_cell = [&](size_t ci) {
    if (config_abort.load(std::memory_order_relaxed) || channel.failed()) {
      return;
    }
    const CellNode& cell = cells[ci];
    std::shared_ptr<const DatasetArtifact> dataset =
        dataset_store.Lookup(cell.spec.dataset);
    std::shared_ptr<const FitArtifact> fit =
        fit_store.Lookup(fits[cell.fit].key);
    std::shared_ptr<const TransformArtifact> transform =
        cell.spec.is_baseline()
            ? nullptr
            : transform_store.Lookup(transforms[cell.transform].key);
    GridRecord record = EvaluateCellStage(cell.spec, options, *dataset, *fit,
                                          transform.get(), metric_names);
    channel.Emit(record);
    results[cell_slot[ci]] = std::move(record);
  };

  auto resolve_dep = [&](size_t slot) {
    const size_t ci = slot_to_cell.at(slot);
    if (deps[ci].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pool.Submit([&, ci] { run_cell(ci); });
    }
  };

  for (size_t di = 0; di < datasets.size(); ++di) {
    if (!dataset_nodes[di].needed) continue;
    pool.Submit([&, di] {
      const DatasetNode& dnode = dataset_nodes[di];
      std::shared_ptr<const DatasetArtifact> artifact =
          dataset_store.GetOrCompute(dnode.name, [&] {
            return LoadDatasetStage(dnode.name, options.data);
          });
      if (!artifact->status.ok()) {
        // Unknown dataset / generation failure: configuration error. The
        // dataset's transforms, fits and cells are never scheduled; the
        // sweep reports this status after the pool drains.
        dataset_status[di] = artifact->status;
        config_abort.store(true, std::memory_order_relaxed);
        return;
      }
      for (const size_t ti : dnode.transforms) {
        pool.Submit([&, ti] {
          const TransformNode& tnode = transforms[ti];
          transform_store.GetOrCompute(tnode.key, [&] {
            return CompressAtBoundStage(
                dataset_nodes[tnode.dataset].name, tnode.compressor,
                tnode.error_bound,
                dataset_store.Lookup(dataset_nodes[tnode.dataset].name)
                    ->split.test,
                options.store_dir, max_attempts, options.verbose);
          });
          for (const size_t slot : tnode.cells) resolve_dep(slot);
        });
      }
      for (const size_t fi : dnode.fits) {
        pool.Submit([&, fi] {
          const FitNode& fnode = fits[fi];
          std::shared_ptr<const FitArtifact> fit =
              fit_store.GetOrCompute(fnode.key, [&] {
                return FitModelStage(
                    fnode.model,
                    *dataset_store.Lookup(dataset_nodes[fnode.dataset].name),
                    options, fnode.seed, fnode.salvaged_baseline,
                    metric_names);
              });
          if (fit->config_error) {
            // Unknown model: configuration error; dependent cells are left
            // unscheduled and the sweep aborts after the drain.
            fit_config_status[fi] = fit->fit_status;
            config_abort.store(true, std::memory_order_relaxed);
            return;
          }
          for (const size_t slot : fnode.cells) resolve_dep(slot);
        });
      }
    });
  }
  pool.Wait();

  if (options.verbose && !cells.empty()) {
    // Artifact-cache effectiveness: how much sharing the DAG achieved. A
    // miss is a computed artifact, a hit a reuse by a sibling cell.
    Progress::Printf(
        "[grid] artifact cache: datasets %llu hits / %llu misses, "
        "transforms %llu hits / %llu misses, fits %llu hits / %llu misses\n",
        static_cast<unsigned long long>(dataset_store.hits()),
        static_cast<unsigned long long>(dataset_store.misses()),
        static_cast<unsigned long long>(transform_store.hits()),
        static_cast<unsigned long long>(transform_store.misses()),
        static_cast<unsigned long long>(fit_store.hits()),
        static_cast<unsigned long long>(fit_store.misses()));
  }

  // Configuration errors abort the sweep deterministically: the first
  // failing dataset (then model) in canonical order wins, matching the
  // sequential implementation's first-encountered semantics.
  for (size_t di = 0; di < datasets.size(); ++di) {
    if (!dataset_status[di].ok()) return dataset_status[di];
  }
  for (size_t fi = 0; fi < fits.size(); ++fi) {
    if (!fit_config_status[fi].ok()) return fit_config_status[fi];
  }
  if (channel.failed()) return channel.status();
  return results;
}

std::string FormatGridRow(const GridRecord& r) {
  std::string row = r.dataset + ',' + r.model + ',' + r.compressor + ',';
  AppendG17(row, r.error_bound);
  row += ',' + std::to_string(r.seed) + ',';
  // v2 marker: the row self-describes its metric arity, so parsers never
  // have to guess where the fixed tail columns start.
  row += 'm' + std::to_string(r.metrics.size());
  for (double value : r.metrics) {
    row += ',';
    AppendG17(row, value);
  }
  row += ',';
  AppendG17(row, r.tfe);
  row += ',';
  AppendG17(row, r.te_nrmse);
  row += ',';
  AppendG17(row, r.te_rmse);
  row += ',';
  AppendG17(row, r.compression_ratio);
  row += ',';
  AppendG17(row, r.segment_count);
  row += ',' + std::to_string(r.error_code) + ',' +
         std::to_string(r.attempts) + ',';
  // Sanitize the message so it can never break the one-record-per-row frame.
  for (char c : r.error) row += (c == ',' || c == '\n' || c == '\r') ? ';' : c;
  return row;
}

Result<GridRecord> ParseGridRow(const std::string& row) {
  std::stringstream stream(row);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(stream, field, ',')) fields.push_back(field);
  // A trailing empty error field is eaten by getline; restore it.
  if (!row.empty() && row.back() == ',') fields.emplace_back();

  GridRecord r;
  // v2 rows carry an explicit metric-arity marker after the seed; without
  // it the row is one of the two fixed v1 layouts (r/rse/rmse/nrmse
  // columns), with or without the fault-tolerance tail.
  uint64_t arity = 0;
  const bool v2 = fields.size() > 5 && fields[5].size() > 1 &&
                  fields[5][0] == 'm' &&
                  ParseU64Field(fields[5].substr(1), &arity);
  if (v2) {
    if (arity == 0 || fields.size() != 14 + arity) {
      return Status::Corruption("malformed grid row: " + row);
    }
  } else if (fields.size() != 14 && fields.size() != 17) {
    return Status::Corruption("malformed grid row: " + row);
  }

  r.dataset = fields[0];
  r.model = fields[1];
  r.compressor = fields[2];
  bool ok = ParseDoubleField(fields[3], &r.error_bound) &&
            ParseU64Field(fields[4], &r.seed);
  const size_t metric_count = v2 ? static_cast<size_t>(arity) : 4;
  const size_t metrics_at = v2 ? 6 : 5;
  r.metrics.assign(metric_count, 0.0);
  for (size_t i = 0; ok && i < metric_count; ++i) {
    ok = ParseDoubleField(fields[metrics_at + i], &r.metrics[i]);
  }
  const size_t tail = metrics_at + metric_count;
  ok = ok && ParseDoubleField(fields[tail], &r.tfe) &&
       ParseDoubleField(fields[tail + 1], &r.te_nrmse) &&
       ParseDoubleField(fields[tail + 2], &r.te_rmse) &&
       ParseDoubleField(fields[tail + 3], &r.compression_ratio) &&
       ParseDoubleField(fields[tail + 4], &r.segment_count);
  if (ok && (v2 || fields.size() == 17)) {
    ok = ParseI32Field(fields[tail + 5], &r.error_code) &&
         ParseI32Field(fields[tail + 6], &r.attempts);
    r.error = fields[tail + 7];
  }
  if (!ok) return Status::Corruption("malformed grid row: " + row);
  return r;
}

Status SaveGridCsv(const std::vector<GridRecord>& records,
                   const std::string& path,
                   const std::vector<std::string>& metric_names) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  file << "dataset,model,compressor,error_bound,seed";
  for (const std::string& name : metric_names) file << ',' << name;
  file << ",tfe,te_nrmse,te_rmse,compression_ratio,segment_count,error_code,"
          "attempts,error\n";
  for (const GridRecord& r : records) {
    file << FormatGridRow(r) << '\n';
  }
  if (!file.good()) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Result<std::vector<GridRecord>> LoadGridCsv(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("no grid cache at " + path);
  }
  std::string line;
  if (!std::getline(file, line)) {
    return Status::Corruption(path + " is empty");
  }
  std::vector<GridRecord> records;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    Result<GridRecord> record = ParseGridRow(line);
    if (!record.ok()) return record.status();
    records.push_back(std::move(*record));
  }
  return records;
}

Result<std::vector<GridRecord>> LoadOrRunGrid(const GridOptions& options,
                                              const std::string& path) {
  Result<std::vector<std::string>> metric_names =
      ResolveMetricNames(options.metrics);
  if (!metric_names.ok()) return metric_names.status();
  const uint32_t options_hash = GridOptionsHash(options);
  std::vector<GridRecord> salvaged;
  Result<GridCheckpoint> loaded =
      LoadGridCheckpoint(path, options_hash, *metric_names);
  if (loaded.ok() && loaded->compatible) {
    // A cache written at jobs > 1 holds its rows in completion order. Splice
    // them into canonical order, as resume does, so a cached load returns
    // the same sequence as a fresh run.
    if (loaded->complete) {
      return RunGridResumable(options, loaded->records, nullptr);
    }
    salvaged = std::move(loaded->records);
    if (options.verbose) {
      Progress::Printf("[grid] resuming %s: %zu rows salvaged\n", path.c_str(),
                       salvaged.size());
    }
  } else if (loaded.ok() && !loaded->compatible && options.verbose) {
    Progress::Printf(
        "[grid] cache %s was built for different options; rerunning (%s)\n",
        path.c_str(), loaded->reason.c_str());
  }
  GridCheckpointWriter writer;
  if (Status s = writer.Open(path, options_hash, salvaged, *metric_names);
      !s.ok()) {
    return s;
  }
  Result<std::vector<GridRecord>> records = RunGridResumable(
      options, salvaged,
      [&writer](const GridRecord& r) { return writer.Append(r); });
  if (!records.ok()) return records.status();
  if (Status s = writer.MarkComplete(); !s.ok()) return s;
  return records;
}

std::string DefaultGridCachePath() { return "lossyts_grid_cache.csv"; }

}  // namespace lossyts::eval
