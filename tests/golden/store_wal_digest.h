#ifndef LOSSYTS_TESTS_GOLDEN_STORE_WAL_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_STORE_WAL_DIGEST_H_

// The on-disk files pinned by store_wal_golden_test.cc and printed by its
// generator (store_wal_golden_gen.cc). A row is one file: its size and
// FNV-1a over its bytes. The rows cover
//
//   * StoreWriter output for each of the six datasets with default
//     StoreOptions, plus ETTm1 at chunk_span 100;
//   * a scripted Shard session: wal.log before and after a Flush, and each
//     series' checkpoint .lts;
//   * the `shards` file a fresh Daemon writes.
//
// Every file is written into `scratch`, a directory the caller owns; the
// digests depend only on the file bytes, never on the path.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/datasets.h"
#include "golden/codec_digest.h"
#include "serve/daemon.h"
#include "serve/shard.h"
#include "store/writer.h"

namespace lossyts::golden {

struct FileDigest {
  std::string label;
  uint64_t bytes = 0;
  uint64_t fnv = 0;
};

inline Result<FileDigest> DigestFile(const std::string& label,
                                     const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::NotFound("no file at " + path);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                   std::istreambuf_iterator<char>());
  FileDigest digest;
  digest.label = label;
  digest.bytes = bytes.size();
  digest.fnv = Fnv1a(kFnvOffset, bytes.data(), bytes.size());
  return digest;
}

inline Status RemoveTree(const std::string& path) {
  const std::string cmd = "rm -rf '" + path + "'";
  if (std::system(cmd.c_str()) != 0) {
    return Status::IoError("cannot remove " + path);
  }
  return Status::OK();
}

inline Result<FileDigest> DigestStore(const std::string& label,
                                      const std::string& path,
                                      const TimeSeries& series,
                                      const store::StoreOptions& options) {
  Result<std::unique_ptr<store::StoreWriter>> writer =
      store::StoreWriter::Create(path, options);
  if (!writer.ok()) return writer.status();
  if (Status s = (*writer)->Append(series); !s.ok()) return s;
  if (Status s = (*writer)->Finish(); !s.ok()) return s;
  return DigestFile(label, path);
}

/// The value of point `index` of session series `series`: exact binary
/// fractions, no libm, so the row does not depend on the host.
inline double SessionValue(int series, uint64_t index) {
  return static_cast<double>((index * 37 + static_cast<uint64_t>(series) * 11) %
                             101) *
             0.25 -
         3.0 + static_cast<double>(series) * 40.0;
}

/// The scripted shard session: three series with the default codec list,
/// 16-point chunks, three append batches (one single-op, two multi-op) and
/// one explicit Flush.
inline Status AppendSessionRows(const std::string& scratch,
                                std::vector<FileDigest>& rows) {
  const std::string dir = scratch + "/shard";
  if (Status s = RemoveTree(dir); !s.ok()) return s;
  serve::ShardOptions options;
  options.chunk_span = 16;
  Result<std::unique_ptr<serve::Shard>> shard =
      serve::Shard::Open(dir, options);
  if (!shard.ok()) return shard.status();

  const std::vector<std::string> names = {"cpu", "mem", "disk.io"};
  std::vector<uint64_t> points(names.size(), 0);
  auto op = [&](int series, uint64_t count) {
    serve::AppendOp append;
    append.series = names[static_cast<size_t>(series)];
    append.interval_seconds = 60;
    append.first_timestamp =
        1700000000 + static_cast<int64_t>(points[static_cast<size_t>(series)]) *
                         60;
    for (uint64_t i = 0; i < count; ++i) {
      append.values.push_back(
          SessionValue(series, points[static_cast<size_t>(series)] + i));
    }
    points[static_cast<size_t>(series)] += count;
    return append;
  };
  const std::vector<std::vector<serve::AppendOp>> batches = {
      {op(0, 20)},
      {op(1, 7), op(2, 30)},
      {op(0, 15), op(1, 9)},
  };
  for (const std::vector<serve::AppendOp>& batch : batches) {
    for (const Status& s : (*shard)->AppendBatch(batch)) {
      if (!s.ok()) return s;
    }
  }
  Result<FileDigest> before = DigestFile("wal/before-flush", dir + "/wal.log");
  if (!before.ok()) return before.status();
  rows.push_back(*before);
  if (Status s = (*shard)->Flush(); !s.ok()) return s;
  Result<FileDigest> after = DigestFile("wal/after-flush", dir + "/wal.log");
  if (!after.ok()) return after.status();
  rows.push_back(*after);
  for (const std::string& name : names) {
    Result<FileDigest> store =
        DigestFile("checkpoint/" + name + ".lts", dir + "/" + name + ".lts");
    if (!store.ok()) return store.status();
    rows.push_back(*store);
  }
  return Status::OK();
}

/// The `shards` file of a fresh three-shard catalog.
inline Status AppendShardCountRow(const std::string& scratch,
                                  std::vector<FileDigest>& rows) {
  const std::string dir = scratch + "/catalog";
  if (Status s = RemoveTree(dir); !s.ok()) return s;
  serve::DaemonOptions options;
  options.dir = dir;
  options.shards = 3;
  options.jobs = 1;
  Result<std::unique_ptr<serve::Daemon>> daemon =
      serve::Daemon::Start(options);
  if (!daemon.ok()) return daemon.status();
  if (Status s = (*daemon)->Stop(); !s.ok()) return s;
  Result<FileDigest> count = DigestFile("daemon/shards", dir + "/shards");
  if (!count.ok()) return count.status();
  rows.push_back(*count);
  return Status::OK();
}

/// Every row, in table order.
inline Result<std::vector<FileDigest>> ComputeStoreWalDigests(
    const std::string& scratch) {
  Result<std::vector<data::Dataset>> datasets = data::MakeAllDatasets();
  if (!datasets.ok()) return datasets.status();
  std::vector<FileDigest> rows;
  for (const data::Dataset& dataset : *datasets) {
    Result<FileDigest> row =
        DigestStore("store/" + dataset.name, scratch + "/store.lts",
                    dataset.series, store::StoreOptions{});
    if (!row.ok()) return row.status();
    rows.push_back(*row);
  }
  store::StoreOptions span100;
  span100.chunk_span = 100;
  Result<FileDigest> row =
      DigestStore("store/ETTm1/span100", scratch + "/store.lts",
                  datasets->front().series, span100);
  if (!row.ok()) return row.status();
  rows.push_back(*row);
  if (Status s = AppendSessionRows(scratch, rows); !s.ok()) return s;
  if (Status s = AppendShardCountRow(scratch, rows); !s.ok()) return s;
  return rows;
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_STORE_WAL_DIGEST_H_
