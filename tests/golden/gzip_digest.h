#ifndef LOSSYTS_TESTS_GOLDEN_GZIP_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_GZIP_DIGEST_H_

// Digests of zip::GzipCompress output, shared by gzip_golden_test.cc and the
// generator that prints its table (gzip_golden_gen.cc). Every compression
// ratio is |gzip(raw CSV)| / |gzip(blob)|, so these rows pin both sides of
// every CR. A row folds one or more inputs, in order: the input count, their
// total size, the total gzip size and FNV-1a over the gzip bytes. Its label
// names the inputs:
//
//   csv:<dataset>    the dataset's raw CSV at the default length_fraction
//                    (0.125), the compression sweep's CR numerator;
//   split:<dataset>  the raw CSV of the dataset's test split at the grid's
//                    length_fraction (0.05), the grid's CR numerator;
//   blobs:<codec>    the codec's blobs over the six datasets, at every paper
//                    bound for a lossy codec and once at bound 0 for a
//                    lossless one: the compression sweep's blob inputs;
//   <pattern>:<size> SyntheticBytes(pattern, size).
//
// The synthetic sizes sit at DEFLATE's edges: the stored-block cutoff
// (0..9), the longest match (257..259), the 32 KiB window (32767..32769)
// and twice that (65535..65537, where "period32768" repeats its first
// 32768 bytes at distance exactly 32768). "runs" is long constant runs, so
// a hash bucket grows far past the 128 candidates one search probes.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "conform/oracles.h"
#include "core/rng.h"
#include "core/split.h"
#include "core/status.h"
#include "data/datasets.h"
#include "eval/grid.h"
#include "golden/codec_digest.h"
#include "zip/gzip.h"

namespace lossyts::golden {

struct GzipDigest {
  std::string label;
  uint64_t inputs = 0;
  uint64_t input_bytes = 0;
  uint64_t gz_bytes = 0;
  uint64_t gz_fnv = 0;
};

/// The eight codecs of the compression sweep, as MakeCompressor spells them.
inline const std::vector<std::string>& GzipBlobCodecs() {
  static const std::vector<std::string> kCodecs = {
      "PMC", "SWING", "SZ", "PPA", "LFZIP", "CAMEO", "GORILLA", "CHIMP"};
  return kCodecs;
}

inline const std::vector<std::string>& SyntheticPatterns() {
  static const std::vector<std::string> kPatterns = {
      "random", "alphabet3", "text", "period32768", "constant", "runs"};
  return kPatterns;
}

inline const std::vector<size_t>& SyntheticSizes() {
  static const std::vector<size_t> kSizes = {
      0,     1,     2,     3,     4,     5,     6,     7,     8,
      9,     257,   258,   259,   32767, 32768, 32769, 65535, 65536,
      65537, 140000};
  return kSizes;
}

/// Deterministic bytes of `pattern` (one of SyntheticPatterns()); every
/// pattern's output at a smaller size is a prefix of its output at a larger
/// one.
inline std::vector<uint8_t> SyntheticBytes(const std::string& pattern,
                                           size_t size) {
  std::vector<uint8_t> out;
  out.reserve(size);
  Rng rng(kGoldenBaseSeed);
  if (pattern == "random") {
    while (out.size() < size) {
      out.push_back(static_cast<uint8_t>(rng.UniformInt(256)));
    }
  } else if (pattern == "alphabet3") {
    while (out.size() < size) {
      out.push_back(static_cast<uint8_t>('a' + rng.UniformInt(3)));
    }
  } else if (pattern == "text") {
    const std::string words[] = {"the ", "quick ", "brown ", "fox ",
                                 "jumps ", "over ", "lazy ", "dog ",
                                 "0.125,", "-42.5\n"};
    while (out.size() < size) {
      for (char c : words[rng.UniformInt(std::size(words))]) {
        if (out.size() < size) out.push_back(static_cast<uint8_t>(c));
      }
    }
  } else if (pattern == "period32768") {
    while (out.size() < size && out.size() < 32768) {
      out.push_back(static_cast<uint8_t>(rng.UniformInt(256)));
    }
    while (out.size() < size) out.push_back(out[out.size() - 32768]);
  } else if (pattern == "constant") {
    out.assign(size, 'x');
  } else if (pattern == "runs") {
    // Runs of 'x' of 50..449 bytes, each ended by one of 16 terminators.
    while (out.size() < size) {
      const size_t run = 50 + rng.UniformInt(400);
      for (size_t i = 0; i < run && out.size() < size; ++i) out.push_back('x');
      if (out.size() < size) {
        out.push_back(static_cast<uint8_t>('A' + rng.UniformInt(16)));
      }
    }
  }
  return out;
}

/// Every row label, in table order: csv rows, split rows, blob rows, then
/// each synthetic pattern at every synthetic size.
inline std::vector<std::string> GzipGoldenLabels() {
  std::vector<std::string> labels;
  for (const std::string& name : data::DatasetNames()) {
    labels.push_back("csv:" + name);
  }
  for (const std::string& name : data::DatasetNames()) {
    labels.push_back("split:" + name);
  }
  for (const std::string& codec : GzipBlobCodecs()) {
    labels.push_back("blobs:" + codec);
  }
  for (const std::string& pattern : SyntheticPatterns()) {
    for (size_t size : SyntheticSizes()) {
      labels.push_back(pattern + ":" + std::to_string(size));
    }
  }
  return labels;
}

inline void FoldGzip(const std::vector<uint8_t>& input, GzipDigest* digest) {
  const std::vector<uint8_t> gz = zip::GzipCompress(input);
  digest->inputs += 1;
  digest->input_bytes += input.size();
  digest->gz_bytes += gz.size();
  digest->gz_fnv = Fnv1a(digest->gz_fnv, gz.data(), gz.size());
}

/// The digest of the row named `label` (see the header comment).
inline Result<GzipDigest> ComputeGzipDigest(const std::string& label) {
  const size_t colon = label.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("bad gzip golden label: " + label);
  }
  const std::string kind = label.substr(0, colon);
  const std::string arg = label.substr(colon + 1);
  GzipDigest digest;
  digest.label = label;
  digest.gz_fnv = kFnvOffset;
  if (kind == "csv") {
    Result<data::Dataset> dataset = data::MakeDataset(arg);
    if (!dataset.ok()) return dataset.status();
    FoldGzip(compress::SerializeRawCsv(dataset->series), &digest);
  } else if (kind == "split") {
    Result<data::Dataset> dataset =
        data::MakeDataset(arg, eval::GridOptions().data);
    if (!dataset.ok()) return dataset.status();
    Result<TrainValTest> split = SplitSeries(dataset->series);
    if (!split.ok()) return split.status();
    FoldGzip(compress::SerializeRawCsv(split->test), &digest);
  } else if (kind == "blobs") {
    Result<std::unique_ptr<compress::Compressor>> compressor =
        compress::MakeCompressor(arg);
    if (!compressor.ok()) return compressor.status();
    Result<std::vector<data::Dataset>> datasets = data::MakeAllDatasets();
    if (!datasets.ok()) return datasets.status();
    const std::vector<double> bounds = conform::IsLosslessCodec(arg)
                                           ? std::vector<double>{0.0}
                                           : compress::PaperErrorBounds();
    for (const data::Dataset& dataset : *datasets) {
      for (double bound : bounds) {
        Result<std::vector<uint8_t>> blob =
            (*compressor)->Compress(dataset.series, bound);
        if (!blob.ok()) return blob.status();
        FoldGzip(*blob, &digest);
      }
    }
  } else if (std::count(SyntheticPatterns().begin(),
                        SyntheticPatterns().end(), kind) == 1) {
    FoldGzip(SyntheticBytes(kind, std::stoul(arg)), &digest);
  } else {
    return Status::InvalidArgument("bad gzip golden label: " + label);
  }
  return digest;
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_GZIP_DIGEST_H_
