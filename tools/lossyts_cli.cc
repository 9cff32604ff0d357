// lossyts — command-line front end for the compression library.
//
//   lossyts compress <PMC|SWING|SZ|PPA|LFZIP|CAMEO|GORILLA|CHIMP> <eb> <in.csv> <out.lts>
//   lossyts decompress <in.lts> <out.csv>
//   lossyts stats <in.csv | dataset-name>
//   lossyts sweep <in.csv | dataset-name>
//   lossyts grid [--resume] [--fresh] [--cache <path>] [--jobs N] [filters...]
//   lossyts conform [--cases N] [--seed S] [--codecs a,b] [--jobs N] [...]
//   lossyts numcheck [--iters N] [--seed S] [--ops a,b] [--models a,b] [...]
//   lossyts store ingest|query|stats|verify|ingest-grid ...
//   lossyts stream <in.csv | dataset-name> [--codec PMC|SWING] [...]
//
// Compressed files are the library's self-describing blobs wrapped in gzip
// (the paper's measurement format), so `decompress` needs no codec argument.
// `store` files are the chunk store format from src/store/ — CRC-framed
// chunk records plus a sparse time index, queryable without full decode.

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "compress/pipeline.h"
#include "conform/harness.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "eval/grid.h"
#include "eval/report.h"
#include "eval/store_source.h"
#include "features/registry.h"
#include "numcheck/harness.h"
#include "query/query.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "store/format.h"
#include "stream/online_eval.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"
#include "zip/gzip.h"

using namespace lossyts;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  lossyts compress <PMC|SWING|SZ|PPA|LFZIP|CAMEO|GORILLA|CHIMP> <eb> "
      "<in.csv> "
      "<out.lts>\n"
      "  lossyts decompress <in.lts> <out.csv>\n"
      "  lossyts stats <in.csv | dataset-name>\n"
      "  lossyts sweep <in.csv | dataset-name>\n"
      "  lossyts grid [--resume] [--fresh] [--cache <path>] [--retries N]\n"
      "               [--jobs N] [--datasets a,b] [--models a,b]\n"
      "               [--compressors a,b] [--error-bounds 0.05,0.4]\n"
      "               [--seeds 1,2] [--metrics mae,pinball@0.9]\n"
      "  lossyts conform [--cases N] [--seed S] [--codecs a,b]\n"
      "               [--error-bounds 0.01,0.2] [--bit-flips N]\n"
      "               [--no-mutate] [--jobs N]\n"
      "  lossyts numcheck [--iters N] [--seed S] [--ops a,b] [--models a,b]\n"
      "               [--oracles a,b] [--jobs N]   (list \"none\" to skip a\n"
      "               category; empty list means all)\n"
      "  lossyts store ingest <codec[,codec...]> <eb> <in.csv | dataset>\n"
      "               <out.lts> [--span N]\n"
      "  lossyts store query <in.lts> <MIN|MAX|SUM|COUNT|MEAN> [<t0> <t1>]\n"
      "               [--jobs N] [--no-pushdown]\n"
      "  lossyts store stats <in.lts>\n"
      "  lossyts store verify <in.lts> <in.csv | dataset>\n"
      "  lossyts store ingest-grid <dir> [--datasets a,b]\n"
      "               [--compressors a,b] [--error-bounds 0.05,0.4]\n"
      "  lossyts query <dir> [--metrics a,b] [--agg MIN,MEAN,..]\n"
      "               [--group-by series|prefix|all] [--delim <d>]\n"
      "               [--range <t0> <t1>] [--jobs N] [--match <substr>]\n"
      "               [--pred-suffix <s>] [--season N]\n"
      "  lossyts stream <in.csv | dataset> [--codec PMC|SWING] [--eb E]\n"
      "               [--model Arima|..] [--metrics a,b] [--seed S]\n"
      "               [--initial-train N] [--retrain-window N]\n"
      "               [--rolling-window N] [--no-retrain]\n"
      "               [--detector point-cusum|level-ph|slope-ph]\n"
      "  lossyts serve <dir> [--socket <path>] [--shards N] [--jobs N]\n"
      "               [--eb E] [--span N] [--codecs a,b] [--no-sync]\n"
      "               [--flush-wal-bytes N] [--max-queue N]\n"
      "               [--deadline-ms N] [--client-timeout-ms N]\n"
      "               [--stream PMC|SWING] [--stream-eb E]\n"
      "  lossyts client <socket> ping | list | stats | shutdown\n"
      "  lossyts client <socket> stream-info <series>\n"
      "  lossyts client <socket> append <series> <t0> <interval> <v1,v2,..>\n"
      "  lossyts client <socket> read <series> <t0> <t1>\n"
      "  lossyts client <socket> query --metrics a,b [--group-by m]\n"
      "               [--delim <d>] [--range <t0> <t1>] [--match <substr>]\n"
      "               [--pred-suffix <s>] [--season N]\n"
      "  (grid also takes --store-dir <dir> to source transforms from\n"
      "   store files, and --build-stores to build them first)\n"
      "dataset names: ETTm1 ETTm2 Solar Weather ElecDem Wind\n");
  return 2;
}

Result<TimeSeries> LoadSeries(const std::string& arg) {
  for (const std::string& name : data::DatasetNames()) {
    if (name == arg) {
      data::DatasetOptions options;
      options.length_fraction = 0.125;
      Result<data::Dataset> dataset = data::MakeDataset(name, options);
      if (!dataset.ok()) return dataset.status();
      return dataset->series;
    }
  }
  return data::LoadCsv(arg);
}

Result<std::vector<uint8_t>> ReadBinary(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::IoError("cannot open " + path);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

Status WriteBinary(const std::string& path, const std::vector<uint8_t>& data) {
  std::ofstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
  if (!file.good()) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

int Compress(const std::string& codec_name, const std::string& eb_text,
             const std::string& in_path, const std::string& out_path) {
  Result<TimeSeries> series = LoadSeries(in_path);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<compress::Compressor>> codec =
      compress::MakeCompressor(codec_name);
  if (!codec.ok()) {
    std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
    return 1;
  }
  const double eb = std::strtod(eb_text.c_str(), nullptr);
  Result<std::vector<uint8_t>> blob = (*codec)->Compress(*series, eb);
  if (!blob.ok()) {
    std::fprintf(stderr, "%s\n", blob.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t> gz = zip::GzipCompress(*blob);
  if (Status s = WriteBinary(out_path, gz); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const size_t raw_gz = compress::RawGzipSize(*series);
  std::printf("%s: %zu points -> %zu bytes (CR %.1fx vs gzip'd CSV)\n",
              codec_name.c_str(), series->size(), gz.size(),
              static_cast<double>(raw_gz) / static_cast<double>(gz.size()));
  return 0;
}

int Decompress(const std::string& in_path, const std::string& out_path) {
  Result<std::vector<uint8_t>> gz = ReadBinary(in_path);
  if (!gz.ok()) {
    std::fprintf(stderr, "%s\n", gz.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<uint8_t>> blob = zip::GzipDecompress(*gz);
  if (!blob.ok()) {
    std::fprintf(stderr, "%s\n", blob.status().ToString().c_str());
    return 1;
  }
  Result<TimeSeries> series = compress::DecompressAny(*blob);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  if (Status s = data::SaveCsv(*series, out_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu points to %s\n", series->size(), out_path.c_str());
  return 0;
}

int Stats(const std::string& arg) {
  Result<TimeSeries> series = LoadSeries(arg);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  Result<TimeSeries::Stats> stats = series->ComputeStats();
  if (!stats.ok()) return 1;
  std::printf("points:   %zu\n", stats->length);
  std::printf("interval: %d s\n", series->interval_seconds());
  std::printf("mean:     %.4f\n", stats->mean);
  std::printf("min/max:  %.4f / %.4f\n", stats->min, stats->max);
  std::printf("Q1/Q3:    %.4f / %.4f\n", stats->q1, stats->q3);
  std::printf("rIQD:     %.1f%%\n", stats->riqd_percent);
  Result<features::FeatureMap> features =
      features::ComputeAllFeatures(*series, 0);
  if (features.ok()) {
    std::printf("entropy:  %.3f   hurst: %.3f   max_kl_shift: %.3f\n",
                features->at("entropy"), features->at("hurst"),
                features->at("max_kl_shift"));
  }
  return 0;
}

int Sweep(const std::string& arg) {
  Result<TimeSeries> series = LoadSeries(arg);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  eval::TableWriter table({"codec", "eb", "CR", "TE(NRMSE)"});
  for (const std::string name :
       {"PMC", "SWING", "SZ", "PPA", "LFZIP", "CAMEO"}) {
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    if (!codec.ok()) {
      std::fprintf(stderr, "sweep: %s: %s\n", name.c_str(),
                   codec.status().ToString().c_str());
      return 1;
    }
    for (double eb : {0.01, 0.05, 0.2}) {
      Result<compress::PipelineResult> run =
          compress::RunPipeline(**codec, *series, eb);
      if (!run.ok()) {
        std::fprintf(stderr, "sweep: %s at eb %g: %s\n", name.c_str(), eb,
                     run.status().ToString().c_str());
        return 1;
      }
      table.AddRow({name, eval::FormatDouble(eb, 2),
                    eval::FormatDouble(run->compression_ratio, 1),
                    eval::FormatDouble(run->te_nrmse, 4)});
    }
  }
  table.Print();
  return 0;
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

// Runs the evaluation grid with checkpoint/resume. The checkpoint is written
// incrementally (one CRC-framed row per completed cell), so an interrupted
// sweep rerun with --resume salvages every finished cell and computes only
// the missing ones. Without --resume any existing cache is discarded.
int Grid(int argc, char** argv) {
  eval::GridOptions options;
  options.verbose = true;
  bool resume = false;
  bool build_stores = false;
  std::string cache_path = eval::DefaultGridCachePath();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--fresh") {
      resume = false;
    } else if (arg == "--cache") {
      const char* v = next();
      if (v == nullptr) return Usage();
      cache_path = v;
    } else if (arg == "--store-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.store_dir = v;
    } else if (arg == "--build-stores") {
      build_stores = true;
    } else if (arg == "--retries") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.max_cell_retries = std::atoi(v);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.jobs = std::atoi(v);
    } else if (arg == "--datasets") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.datasets = SplitList(v);
    } else if (arg == "--models") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.models = SplitList(v);
    } else if (arg == "--compressors") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.compressors = SplitList(v);
    } else if (arg == "--error-bounds") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.error_bounds.clear();
      for (const std::string& eb : SplitList(v)) {
        options.error_bounds.push_back(std::strtod(eb.c_str(), nullptr));
      }
    } else if (arg == "--seeds") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.seeds.clear();
      for (const std::string& seed : SplitList(v)) {
        options.seeds.push_back(std::strtoull(seed.c_str(), nullptr, 10));
      }
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.metrics = SplitList(v);
    } else {
      return Usage();
    }
  }
  if (build_stores) {
    if (options.store_dir.empty()) {
      std::fprintf(stderr, "--build-stores requires --store-dir\n");
      return Usage();
    }
    if (Status s = eval::BuildTransformStores(options, options.store_dir);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!resume) std::remove(cache_path.c_str());
  Result<std::vector<eval::GridRecord>> records =
      eval::LoadOrRunGrid(options, cache_path);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }
  const std::vector<const eval::GridRecord*> failed =
      eval::FailedRecords(*records);
  std::printf("grid: %zu cells (%zu failed), checkpoint at %s\n",
              records->size(), failed.size(), cache_path.c_str());
  if (!failed.empty()) {
    eval::TableWriter table({"dataset", "model", "codec", "eb", "seed",
                             "attempts", "error"});
    for (const eval::GridRecord* r : failed) {
      table.AddRow({r->dataset, r->model, r->compressor,
                    eval::FormatDouble(r->error_bound, 2),
                    std::to_string(r->seed), std::to_string(r->attempts),
                    r->error});
    }
    table.Print();
  }
  return 0;
}

// Runs the codec conformance harness: adversarial corpus × codecs × error
// bounds through the pointwise-bound oracles plus the decoder-fuzzing pass.
// Exits nonzero iff any oracle fired; each failure line carries the codec,
// ε, corpus family/index, and seed needed to reproduce it deterministically.
int Conform(int argc, char** argv) {
  conform::ConformOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--cases") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.cases_per_family = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.base_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--codecs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.codecs = SplitList(v);
    } else if (arg == "--error-bounds") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.error_bounds.clear();
      for (const std::string& eb : SplitList(v)) {
        options.error_bounds.push_back(std::strtod(eb.c_str(), nullptr));
      }
    } else if (arg == "--bit-flips") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.random_bit_flips = std::atoi(v);
    } else if (arg == "--no-mutate") {
      options.mutate = false;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.jobs = std::atoi(v);
    } else {
      return Usage();
    }
  }
  Result<conform::ConformSummary> summary = conform::RunConform(options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  for (const conform::ConformFailure& f : summary->failures) {
    std::fprintf(stderr, "%s\n", conform::FormatFailure(f).c_str());
  }
  std::printf("conform: %zu cells, %zu mutants, %zu failures (seed %llu)\n",
              summary->cases, summary->mutants, summary->failures.size(),
              static_cast<unsigned long long>(options.base_seed));
  return summary->failures.empty() ? 0 : 1;
}

// Runs the numerics conformance harness: finite-difference gradient oracles
// over the autodiff ops and forecaster networks, plus closed-form analysis
// and training-determinism oracles. Exits nonzero iff any check fired; each
// failure line carries the component, case index, and seed needed to
// reproduce it deterministically.
int Numcheck(int argc, char** argv) {
  numcheck::NumCheckOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--iters") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.iters = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.base_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--ops") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.ops = SplitList(v);
    } else if (arg == "--models") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.models = SplitList(v);
    } else if (arg == "--oracles") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.oracles = SplitList(v);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.jobs = std::atoi(v);
    } else {
      return Usage();
    }
  }
  Result<numcheck::NumCheckSummary> summary = numcheck::RunNumCheck(options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  for (const numcheck::NumCheckFailure& f : summary->failures) {
    std::fprintf(stderr, "%s\n", numcheck::FormatFailure(f).c_str());
  }
  std::printf("numcheck: %zu cases, %zu checks, %zu failures (seed %llu)\n",
              summary->cases, summary->checks, summary->failures.size(),
              static_cast<unsigned long long>(options.base_seed));
  return summary->failures.empty() ? 0 : 1;
}

const char* AlgorithmName(compress::AlgorithmId id) {
  switch (id) {
    case compress::AlgorithmId::kPmc: return "PMC";
    case compress::AlgorithmId::kSwing: return "SWING";
    case compress::AlgorithmId::kSz: return "SZ";
    case compress::AlgorithmId::kGorilla: return "GORILLA";
    case compress::AlgorithmId::kChimp: return "CHIMP";
    case compress::AlgorithmId::kPpa: return "PPA";
    case compress::AlgorithmId::kLfzip: return "LFZIP";
    case compress::AlgorithmId::kCameo: return "CAMEO";
  }
  return "?";
}

int StoreIngest(int argc, char** argv) {
  if (argc < 7) return Usage();
  store::StoreOptions options;
  options.codecs = SplitList(argv[3]);
  options.error_bound = std::strtod(argv[4], nullptr);
  const std::string in_path = argv[5];
  const std::string out_path = argv[6];
  for (int i = 7; i < argc; ++i) {
    if (std::string(argv[i]) == "--span" && i + 1 < argc) {
      options.chunk_span = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      return Usage();
    }
  }
  Result<TimeSeries> series = LoadSeries(in_path);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<store::StoreWriter>> writer =
      store::StoreWriter::Create(out_path, options);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*writer)->Append(*series); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = (*writer)->Finish(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const size_t raw_gz = compress::RawGzipSize(*series);
  std::printf(
      "%s: %llu points in %llu chunks -> %llu bytes (CR %.1fx vs gzip'd "
      "CSV)\n",
      out_path.c_str(),
      static_cast<unsigned long long>((*writer)->points_written()),
      static_cast<unsigned long long>((*writer)->chunks_written()),
      static_cast<unsigned long long>((*writer)->bytes_written()),
      static_cast<double>(raw_gz) /
          static_cast<double>((*writer)->bytes_written()));
  return 0;
}

int StoreQuery(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string path = argv[3];
  Result<store::AggregateKind> kind = store::ParseAggregateKind(argv[4]);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return Usage();
  }
  Result<std::unique_ptr<store::StoreReader>> reader =
      store::StoreReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  int64_t t0 = (*reader)->start_timestamp();
  int64_t t1 = (*reader)->last_timestamp();
  store::AggregateOptions options;
  int i = 5;
  if (i + 1 < argc && argv[i][0] != '-') {
    t0 = std::strtoll(argv[i], nullptr, 10);
    t1 = std::strtoll(argv[i + 1], nullptr, 10);
    i += 2;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      options.jobs = std::atoi(argv[++i]);
    } else if (arg == "--no-pushdown") {
      options.allow_pushdown = false;
    } else {
      return Usage();
    }
  }
  Result<store::AggregateResult> result =
      store::AggregateRange(**reader, *kind, t0, t1, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s[%lld, %lld] = %.17g  (±%.3g vs raw, %llu points, "
              "%zu pushdown / %zu decoded chunks)\n",
              store::AggregateKindName(*kind), static_cast<long long>(t0),
              static_cast<long long>(t1), result->value, result->error_bound,
              static_cast<unsigned long long>(result->count),
              result->pushdown_chunks, result->decoded_chunks);
  return 0;
}

int StoreStats(int argc, char** argv) {
  if (argc != 4) return Usage();
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::Open(argv[3]);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  const store::StoreReader& reader = **opened;
  std::string codecs;
  for (const std::string& name : reader.header().codecs) {
    if (!codecs.empty()) codecs += ',';
    codecs += name;
  }
  std::printf("state:     %s\n", reader.clean() ? "complete" : "salvaged");
  std::printf("bound:     %g\n", reader.header().error_bound);
  std::printf("span:      %u points/chunk\n", reader.header().chunk_span);
  std::printf("codecs:    %s\n", codecs.c_str());
  std::printf("points:    %llu\n",
              static_cast<unsigned long long>(reader.total_points()));
  std::printf("chunks:    %zu\n", reader.chunks().size());
  std::printf("bytes:     %zu\n", reader.file_size());
  if (!reader.chunks().empty()) {
    std::printf("range:     [%lld, %lld] at %d s\n",
                static_cast<long long>(reader.start_timestamp()),
                static_cast<long long>(reader.last_timestamp()),
                reader.interval_seconds());
    size_t by_alg[9] = {};
    for (const store::ChunkInfo& chunk : reader.chunks()) {
      const size_t id = static_cast<size_t>(chunk.algorithm);
      if (id < 9) ++by_alg[id];
    }
    std::string mix;
    for (size_t id = 1; id < 9; ++id) {
      if (by_alg[id] == 0) continue;
      if (!mix.empty()) mix += ", ";
      mix += std::to_string(by_alg[id]);
      mix += "x";
      mix += AlgorithmName(static_cast<compress::AlgorithmId>(id));
    }
    std::printf("chunk mix: %s\n", mix.c_str());
  }
  return 0;
}

// Verifies a store against the raw series it was ingested from: the time
// grid must match, every reconstructed point must sit inside the
// RelativeAllowance interval of its raw value (bit-exact for lossless
// chunks — the same §2 pointwise oracle the conform harness enforces), and
// every pushdown aggregate must sit within its self-reported error bound of
// the same aggregate over the raw data.
int StoreVerify(int argc, char** argv) {
  if (argc != 5) return Usage();
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::Open(argv[3]);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  const store::StoreReader& reader = **opened;
  Result<TimeSeries> raw = LoadSeries(argv[4]);
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  if (reader.total_points() > raw->size() ||
      reader.start_timestamp() != raw->start_timestamp() ||
      reader.interval_seconds() != raw->interval_seconds()) {
    std::fprintf(stderr,
                 "verify: store grid does not match the raw series "
                 "(%llu stored vs %zu raw points)\n",
                 static_cast<unsigned long long>(reader.total_points()),
                 raw->size());
    return 1;
  }
  if (!reader.clean()) {
    std::printf("verify: store is a salvaged prefix (%llu of %zu points); "
                "verifying the prefix\n",
                static_cast<unsigned long long>(reader.total_points()),
                raw->size());
  }
  Result<TimeSeries> recon = reader.ReadAll();
  if (!recon.ok()) {
    std::fprintf(stderr, "%s\n", recon.status().ToString().c_str());
    return 1;
  }
  const double eb = reader.header().error_bound;
  size_t checked = 0;
  for (const store::ChunkInfo& chunk : reader.chunks()) {
    const bool lossless = store::IsLosslessAlgorithm(chunk.algorithm);
    for (uint32_t k = 0; k < chunk.num_points; ++k, ++checked) {
      const double v = raw->values()[checked];
      const double v_hat = recon->values()[checked];
      bool ok;
      if (lossless) {
        // Bit-exact, NaN included: compare representations.
        ok = std::memcmp(&v, &v_hat, sizeof(double)) == 0;
      } else {
        const compress::Allowance a = compress::RelativeAllowance(v, eb);
        ok = v_hat >= a.lo && v_hat <= a.hi;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "verify: point %zu out of bound: raw %.17g vs stored "
                     "%.17g (eb %g, %s chunk)\n",
                     checked, v, v_hat, eb, AlgorithmName(chunk.algorithm));
        return 1;
      }
    }
  }
  // Aggregate verification: the pushdown answer must be within its own
  // reported bound of the raw aggregate (small fp slack for the summation
  // order difference).
  const char* kinds[] = {"MIN", "MAX", "SUM", "COUNT", "MEAN"};
  for (const char* name : kinds) {
    Result<store::AggregateKind> kind = store::ParseAggregateKind(name);
    Result<store::AggregateResult> got = store::AggregateRange(
        reader, *kind, reader.start_timestamp(), reader.last_timestamp());
    if (!got.ok()) {
      std::fprintf(stderr, "verify: %s failed: %s\n", name,
                   got.status().ToString().c_str());
      return 1;
    }
    double expect = 0.0;
    double sum = 0.0, mn = raw->values()[0], mx = raw->values()[0];
    for (size_t i = 0; i < checked; ++i) {
      const double v = raw->values()[i];
      sum += v;
      if (v < mn) mn = v;
      if (v > mx) mx = v;
    }
    switch (*kind) {
      case store::AggregateKind::kMin: expect = mn; break;
      case store::AggregateKind::kMax: expect = mx; break;
      case store::AggregateKind::kSum: expect = sum; break;
      case store::AggregateKind::kCount:
        expect = static_cast<double>(checked);
        break;
      case store::AggregateKind::kMean:
        expect = sum / static_cast<double>(checked);
        break;
    }
    const double slack =
        got->error_bound + 1e-9 * std::max(1.0, std::abs(expect));
    if (std::abs(got->value - expect) > slack) {
      std::fprintf(stderr,
                   "verify: %s = %.17g deviates from raw %.17g beyond its "
                   "reported bound %.3g\n",
                   name, got->value, expect, got->error_bound);
      return 1;
    }
  }
  std::printf("verify: OK — %zu points within bound %g, all aggregates "
              "within their reported error\n",
              checked, eb);
  return 0;
}

int StoreIngestGrid(int argc, char** argv) {
  if (argc < 4) return Usage();
  eval::GridOptions options;
  const std::string dir = argv[3];
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--datasets") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.datasets = SplitList(v);
    } else if (arg == "--compressors") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.compressors = SplitList(v);
    } else if (arg == "--error-bounds") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.error_bounds.clear();
      for (const std::string& eb : SplitList(v)) {
        options.error_bounds.push_back(std::strtod(eb.c_str(), nullptr));
      }
    } else {
      return Usage();
    }
  }
  if (Status s = eval::BuildTransformStores(options, dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("built transform stores under %s\n", dir.c_str());
  return 0;
}

// Runs the online forecasting loop on one series: points stream through the
// codec, a drift detector watches the emitted segments, and each alarm
// triggers a retrain on the reconstruction tail. Prints the prequential
// metrics, the alarm/retrain timeline, and the compressed size (whose blob
// is byte-identical to batch compression of the same series).
int StreamCmd(int argc, char** argv) {
  if (argc < 3) return Usage();
  stream::OnlineEvalOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--codec" && (v = next())) {
      options.codec = v;
    } else if (arg == "--eb" && (v = next())) {
      options.error_bound = std::strtod(v, nullptr);
    } else if (arg == "--model" && (v = next())) {
      options.model = v;
    } else if (arg == "--metrics" && (v = next())) {
      options.metrics = SplitList(v);
    } else if (arg == "--seed" && (v = next())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--initial-train" && (v = next())) {
      options.initial_train = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--retrain-window" && (v = next())) {
      options.retrain_window = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--rolling-window" && (v = next())) {
      options.rolling_window = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--no-retrain") {
      options.retrain_on_drift = false;
    } else if (arg == "--detector" && (v = next())) {
      const std::string mode = v;
      if (mode == "point-cusum") {
        options.drift.mode = stream::SegmentDriftOptions::Mode::kPointCusum;
      } else if (mode == "level-ph") {
        options.drift.mode =
            stream::SegmentDriftOptions::Mode::kSegmentLevelPh;
      } else if (mode == "slope-ph") {
        options.drift.mode =
            stream::SegmentDriftOptions::Mode::kSegmentSlopePh;
      } else {
        std::fprintf(stderr, "unknown detector '%s'\n", mode.c_str());
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  Result<TimeSeries> series = LoadSeries(argv[2]);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  options.series_label = argv[2];
  Result<stream::OnlineEvalResult> result =
      stream::RunOnlineEval(*series, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("stream: %s over %s, eb %g, model %s\n", options.codec.c_str(),
              argv[2], options.error_bound, options.model.c_str());
  std::printf("points:   %llu (%llu segments, %llu scored, %llu fits)\n",
              static_cast<unsigned long long>(result->points),
              static_cast<unsigned long long>(result->segments),
              static_cast<unsigned long long>(result->scored),
              static_cast<unsigned long long>(result->fits));
  const size_t raw_gz = compress::RawGzipSize(*series);
  std::printf("blob:     %zu bytes (CR %.1fx vs gzip'd CSV; byte-identical "
              "to batch)\n",
              result->blob.size(),
              static_cast<double>(raw_gz) /
                  static_cast<double>(result->blob.size()));
  for (size_t i = 0; i < result->metric_names.size(); ++i) {
    std::printf("%-9s %.6f\n", (result->metric_names[i] + ":").c_str(),
                result->metric_values[i]);
  }
  std::printf("alarms:   %zu", result->alarms.size());
  constexpr size_t kShown = 12;
  for (size_t i = 0; i < result->alarms.size() && i < kShown; ++i) {
    std::printf(" @%zu", result->alarms[i]);
  }
  if (result->alarms.size() > kShown) {
    std::printf(" ... (+%zu more)", result->alarms.size() - kShown);
  }
  std::printf("\n");
  size_t adapted = 0, adapt_total = 0;
  for (const stream::RetrainEvent& e : result->retrains) {
    if (e.adapted) {
      ++adapted;
      adapt_total += e.adapt_points;
    }
  }
  std::printf("retrains: %zu (%zu adapted", result->retrains.size(), adapted);
  if (adapted > 0) {
    std::printf(", mean time-to-adapt %.1f points",
                static_cast<double>(adapt_total) /
                    static_cast<double>(adapted));
  }
  std::printf(")\n");
  return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int) { g_interrupted = 1; }

// Runs the serve daemon in the foreground until a client shutdown request
// or SIGINT/SIGTERM arrives, then drains gracefully (queued appends still
// commit, every shard checkpoints). A SIGKILL instead is the crash the WAL
// recovers from on the next start.
int Serve(int argc, char** argv) {
  if (argc < 3) return Usage();
  serve::DaemonOptions options;
  options.dir = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--socket" && (v = next())) {
      options.socket_path = v;
    } else if (arg == "--shards" && (v = next())) {
      options.shards = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--jobs" && (v = next())) {
      options.jobs = std::atoi(v);
    } else if (arg == "--eb" && (v = next())) {
      options.shard.error_bound = std::strtod(v, nullptr);
    } else if (arg == "--span" && (v = next())) {
      options.shard.chunk_span = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--codecs" && (v = next())) {
      options.shard.codecs = SplitList(v);
    } else if (arg == "--no-sync") {
      options.shard.sync = false;
    } else if (arg == "--flush-wal-bytes" && (v = next())) {
      options.shard.flush_wal_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-queue" && (v = next())) {
      options.max_queue_ops = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--deadline-ms" && (v = next())) {
      options.append_deadline_ms = std::atoi(v);
    } else if (arg == "--client-timeout-ms" && (v = next())) {
      options.client_timeout_ms = std::atoi(v);
    } else if (arg == "--stream" && (v = next())) {
      options.shard.stream_codec = v;
    } else if (arg == "--stream-eb" && (v = next())) {
      options.shard.stream_error_bound = std::strtod(v, nullptr);
    } else {
      return Usage();
    }
  }
  Result<std::unique_ptr<serve::Daemon>> daemon =
      serve::Daemon::Start(options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "%s\n", daemon.status().ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const serve::ServeStats boot = (*daemon)->Stats();
  std::printf("serving %s on %s (%llu shards, %llu series, %llu points",
              options.dir.c_str(), (*daemon)->socket_path().c_str(),
              static_cast<unsigned long long>(boot.shards),
              static_cast<unsigned long long>(boot.series),
              static_cast<unsigned long long>(boot.points));
  if (boot.replayed_records > 0 || boot.salvaged_stores > 0) {
    std::printf("; recovered %llu wal records, %llu salvaged stores",
                static_cast<unsigned long long>(boot.replayed_records),
                static_cast<unsigned long long>(boot.salvaged_stores));
  }
  std::printf(")\n");
  std::fflush(stdout);
  (*daemon)->Wait([] { return g_interrupted != 0; });
  if (Status s = (*daemon)->Stop(); !s.ok()) {
    std::fprintf(stderr, "drain: %s\n", s.ToString().c_str());
    return 1;
  }
  const serve::ServeStats stats = (*daemon)->Stats();
  std::printf("drained: %llu appends acked, %llu rejected, %llu flushes, "
              "%llu evicted clients\n",
              static_cast<unsigned long long>(stats.appended_ops),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.flushes),
              static_cast<unsigned long long>(stats.evicted_clients));
  return stats.failed_shards == 0 ? 0 : 1;
}

int ClientCmd(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string socket_path = argv[2];
  const std::string sub = argv[3];
  Result<std::unique_ptr<serve::Client>> client =
      serve::Client::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  if (sub == "ping" && argc == 4) {
    if (Status s = (*client)->Ping(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (sub == "append" && argc == 8) {
    std::vector<double> values;
    for (const std::string& v : SplitList(argv[7])) {
      values.push_back(std::strtod(v.c_str(), nullptr));
    }
    Status s = (*client)->Append(argv[4], std::strtoll(argv[5], nullptr, 10),
                                 std::atoi(argv[6]), values);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("acked %zu points\n", values.size());
    return 0;
  }
  if (sub == "read" && argc == 7) {
    Result<TimeSeries> series =
        (*client)->ReadRange(argv[4], std::strtoll(argv[5], nullptr, 10),
                             std::strtoll(argv[6], nullptr, 10));
    if (!series.ok()) {
      std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < series->size(); ++i) {
      std::printf("%lld,%.17g\n",
                  static_cast<long long>(
                      series->start_timestamp() +
                      static_cast<int64_t>(i) * series->interval_seconds()),
                  series->values()[i]);
    }
    return 0;
  }
  if (sub == "list" && argc == 4) {
    Result<std::vector<std::string>> names = (*client)->ListSeries();
    if (!names.ok()) {
      std::fprintf(stderr, "%s\n", names.status().ToString().c_str());
      return 1;
    }
    for (const std::string& name : *names) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (sub == "stats" && argc == 4) {
    Result<serve::ServeStats> stats = (*client)->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("shards:          %llu (%llu failed)\n",
                static_cast<unsigned long long>(stats->shards),
                static_cast<unsigned long long>(stats->failed_shards));
    std::printf("series:          %llu\n",
                static_cast<unsigned long long>(stats->series));
    std::printf("points:          %llu\n",
                static_cast<unsigned long long>(stats->points));
    std::printf("wal bytes:       %llu\n",
                static_cast<unsigned long long>(stats->wal_bytes));
    std::printf("appends acked:   %llu\n",
                static_cast<unsigned long long>(stats->appended_ops));
    std::printf("flushes:         %llu (%llu failed)\n",
                static_cast<unsigned long long>(stats->flushes),
                static_cast<unsigned long long>(stats->flush_failures));
    std::printf("recovery:        %llu wal records, %llu salvaged stores\n",
                static_cast<unsigned long long>(stats->replayed_records),
                static_cast<unsigned long long>(stats->salvaged_stores));
    std::printf("streaming:       %llu points, %llu segments, %llu "
                "rejected\n",
                static_cast<unsigned long long>(stats->streamed_points),
                static_cast<unsigned long long>(stats->stream_segments),
                static_cast<unsigned long long>(stats->stream_rejected));
    std::printf("admission:       %llu accepted, %llu rejected, %llu "
                "deadline misses\n",
                static_cast<unsigned long long>(stats->accepted),
                static_cast<unsigned long long>(stats->rejected),
                static_cast<unsigned long long>(stats->deadline_misses));
    std::printf("evicted clients: %llu\n",
                static_cast<unsigned long long>(stats->evicted_clients));
    return 0;
  }
  if (sub == "query" && argc >= 5) {
    serve::QuerySpec spec;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      const char* v = nullptr;
      if (arg == "--metrics" && (v = next())) {
        spec.metrics = SplitList(v);
      } else if (arg == "--group-by" && (v = next())) {
        spec.group_by = v;
      } else if (arg == "--delim" && (v = next())) {
        spec.delimiter = v;
      } else if (arg == "--range") {
        const char* a = next();
        const char* b = next();
        if (a == nullptr || b == nullptr) return Usage();
        spec.t0 = std::strtoll(a, nullptr, 10);
        spec.t1 = std::strtoll(b, nullptr, 10);
      } else if (arg == "--match" && (v = next())) {
        spec.match = v;
      } else if (arg == "--pred-suffix" && (v = next())) {
        spec.pred_suffix = v;
      } else if (arg == "--season" && (v = next())) {
        spec.season_length = std::atoi(v);
      } else {
        return Usage();
      }
    }
    Result<query::QueryResult> result = (*client)->Query(spec);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", query::FormatQueryResult(*result).c_str());
    return 0;
  }
  if (sub == "stream-info" && argc == 5) {
    Result<serve::SeriesStreamInfo> info = (*client)->StreamInfo(argv[4]);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("codec:       %s (eb %g)\n", info->codec.c_str(),
                info->error_bound);
    std::printf("points:      %llu (%llu rejected)\n",
                static_cast<unsigned long long>(info->points),
                static_cast<unsigned long long>(info->rejected));
    std::printf("segments:    %llu closed\n",
                static_cast<unsigned long long>(info->segments));
    std::printf("open window: %llu points, anchor %.17g, slope %.17g\n",
                static_cast<unsigned long long>(info->open_length),
                info->open_anchor, info->open_slope);
    return 0;
  }
  if (sub == "shutdown" && argc == 4) {
    if (Status s = (*client)->Shutdown(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("shutdown requested\n");
    return 0;
  }
  return Usage();
}

// Grouped-metric / aggregate query over a directory of store files — the
// offline twin of the daemon's kQuery (`lossyts client <sock> query`).
int QueryCmd(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[2];
  query::QueryOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--metrics" && (v = next())) {
      options.metrics = SplitList(v);
    } else if (arg == "--agg" && (v = next())) {
      options.aggregates = SplitList(v);
    } else if (arg == "--group-by" && (v = next())) {
      Result<query::GroupMode> mode = query::ParseGroupMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 1;
      }
      options.group_by = *mode;
    } else if (arg == "--delim" && (v = next())) {
      options.delimiter = v;
    } else if (arg == "--range") {
      const char* a = next();
      const char* b = next();
      if (a == nullptr || b == nullptr) return Usage();
      options.t0 = std::strtoll(a, nullptr, 10);
      options.t1 = std::strtoll(b, nullptr, 10);
    } else if (arg == "--jobs" && (v = next())) {
      options.jobs = std::atoi(v);
    } else if (arg == "--match" && (v = next())) {
      options.match = v;
    } else if (arg == "--pred-suffix" && (v = next())) {
      options.pred_suffix = v;
    } else if (arg == "--season" && (v = next())) {
      options.season_length = std::atoi(v);
    } else {
      return Usage();
    }
  }
  Result<query::QueryResult> result = query::QueryStoreDir(dir, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", query::FormatQueryResult(*result).c_str());
  std::fprintf(stderr, "pushdown chunks: %llu, decoded chunks: %llu\n",
               static_cast<unsigned long long>(result->pushdown_chunks),
               static_cast<unsigned long long>(result->decoded_chunks));
  return 0;
}

int StoreCmd(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub == "ingest") return StoreIngest(argc, argv);
  if (sub == "query") return StoreQuery(argc, argv);
  if (sub == "stats") return StoreStats(argc, argv);
  if (sub == "verify") return StoreVerify(argc, argv);
  if (sub == "ingest-grid") return StoreIngestGrid(argc, argv);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "compress" && argc == 6) {
    return Compress(argv[2], argv[3], argv[4], argv[5]);
  }
  if (command == "decompress" && argc == 4) {
    return Decompress(argv[2], argv[3]);
  }
  if (command == "stats" && argc == 3) return Stats(argv[2]);
  if (command == "sweep" && argc == 3) return Sweep(argv[2]);
  if (command == "grid") return Grid(argc, argv);
  if (command == "conform") return Conform(argc, argv);
  if (command == "numcheck") return Numcheck(argc, argv);
  if (command == "store") return StoreCmd(argc, argv);
  if (command == "stream") return StreamCmd(argc, argv);
  if (command == "query") return QueryCmd(argc, argv);
  if (command == "serve") return Serve(argc, argv);
  if (command == "client") return ClientCmd(argc, argv);
  return Usage();
}
