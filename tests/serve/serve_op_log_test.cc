// The file-system calls of one scripted shard session, op by op, as the
// durable-file op log records them. The expected lists were written from
// the syscalls the shard issued before its WAL, store writer, checkpoint
// and shard-count code moved onto core/durable_file, so they prove that no
// fsync was added, dropped or reordered by that move; any later change to
// the durability protocol has to change them on purpose. One has since:
// creating the shard directory fsyncs its parent ("syncdir ..").

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/durable_file.h"
#include "serve/shard.h"

namespace lossyts::serve {
namespace {

// "<kind> <path relative to dir> [target | byte count | size]", with the
// directory itself spelled "." and its parent "..".
std::string Describe(const durable::Op& op, const std::string& dir) {
  auto rel = [&](const std::string& path) {
    if (path == dir) return std::string(".");
    if (path == durable::ParentDir(dir)) return std::string("..");
    if (path.rfind(dir + "/", 0) == 0) return path.substr(dir.size() + 1);
    return path;
  };
  switch (op.kind) {
    case durable::OpKind::kMkdir:
      return "mkdir " + rel(op.path);
    case durable::OpKind::kCreate:
      return "create " + rel(op.path);
    case durable::OpKind::kAppend:
      return "append " + rel(op.path) + " " + std::to_string(op.bytes.size());
    case durable::OpKind::kSync:
      return "sync " + rel(op.path);
    case durable::OpKind::kTruncate:
      return "truncate " + rel(op.path) + " " + std::to_string(op.size);
    case durable::OpKind::kRename:
      return "rename " + rel(op.path) + " " + rel(op.target);
    case durable::OpKind::kUnlink:
      return "unlink " + rel(op.path);
    case durable::OpKind::kSyncDir:
      return "syncdir " + rel(op.path);
  }
  return "?";
}

AppendOp Ramp(const std::string& series, size_t n, double base) {
  AppendOp op;
  op.series = series;
  op.interval_seconds = 60;
  for (size_t i = 0; i < n; ++i) {
    op.values.push_back(base + static_cast<double>(i) * 0.5);
  }
  return op;
}

// Open a fresh shard, append one batch touching two series, Flush, then
// reopen it.
std::vector<std::string> RunSession(bool sync) {
  const std::string dir = ::testing::TempDir() + "serve_op_log_" +
                          (sync ? std::string("sync") : std::string("nosync"));
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  ShardOptions options;
  options.codecs = {"GORILLA"};
  options.chunk_span = 4;
  options.sync = sync;

  durable::OpLog log;
  durable::InstallOpLog(&log);
  {
    auto shard = Shard::Open(dir, options);
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    if (shard.ok()) {
      for (const Status& s :
           (*shard)->AppendBatch({Ramp("a", 5, 1.0), Ramp("b", 3, 2.0)})) {
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
      EXPECT_TRUE((*shard)->Flush().ok());
    }
  }
  EXPECT_TRUE(Shard::Open(dir, options).ok());
  durable::InstallOpLog(nullptr);

  std::vector<std::string> described;
  for (const durable::Op& op : log.ops) {
    described.push_back(Describe(op, dir));
  }
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  return described;
}

TEST(ServeOpLogTest, SyncSessionIssuesTheseCallsInThisOrder) {
  const std::vector<std::string> expected = {
      // Shard::Open: the directory's entry is made durable in its parent,
      // the WAL is created through AtomicReplace, then reopened for
      // appending at its header.
      "mkdir .",
      "syncdir ..",
      "create wal.log.tmp",
      "append wal.log.tmp 9",
      "sync wal.log.tmp",
      "rename wal.log.tmp wal.log",
      "syncdir .",
      "truncate wal.log 9",
      // AppendBatch: two records, one group-commit fsync.
      "append wal.log 78",
      "append wal.log 62",
      "sync wal.log",
      // Flush, series a: create + directory fsync, header, two chunk
      // frames, data fsync, index + footer, fsync, rename.
      "create a.lts.tmp",
      "syncdir .",
      "append a.lts.tmp 30",
      "append a.lts.tmp 42",
      "append a.lts.tmp 35",
      "sync a.lts.tmp",
      "append a.lts.tmp 74",
      "sync a.lts.tmp",
      "rename a.lts.tmp a.lts",
      // Series b: one chunk frame.
      "create b.lts.tmp",
      "syncdir .",
      "append b.lts.tmp 30",
      "append b.lts.tmp 39",
      "sync b.lts.tmp",
      "append b.lts.tmp 53",
      "sync b.lts.tmp",
      "rename b.lts.tmp b.lts",
      // One directory fsync for both renames, then the WAL reset.
      "syncdir .",
      "create wal.log.tmp",
      "append wal.log.tmp 9",
      "sync wal.log.tmp",
      "rename wal.log.tmp wal.log",
      "syncdir .",
      "truncate wal.log 9",
      // Reopen: the valid prefix is the header.
      "truncate wal.log 9",
  };
  EXPECT_EQ(RunSession(true), expected);
}

// sync = false drops exactly the checkpoint store's fsyncs (its directory
// fsync at create, the data and footer fsyncs) and the directory fsync after
// the renames. The WAL's group-commit fsync, its AtomicReplace reset and the
// parent fsync after the mkdir stay.
TEST(ServeOpLogTest, NoSyncSessionDropsOnlyTheCheckpointFsyncs) {
  const std::vector<std::string> expected = {
      "mkdir .",
      "syncdir ..",
      "create wal.log.tmp",
      "append wal.log.tmp 9",
      "sync wal.log.tmp",
      "rename wal.log.tmp wal.log",
      "syncdir .",
      "truncate wal.log 9",
      "append wal.log 78",
      "append wal.log 62",
      "sync wal.log",
      "create a.lts.tmp",
      "append a.lts.tmp 30",
      "append a.lts.tmp 42",
      "append a.lts.tmp 35",
      "append a.lts.tmp 74",
      "rename a.lts.tmp a.lts",
      "create b.lts.tmp",
      "append b.lts.tmp 30",
      "append b.lts.tmp 39",
      "append b.lts.tmp 53",
      "rename b.lts.tmp b.lts",
      "create wal.log.tmp",
      "append wal.log.tmp 9",
      "sync wal.log.tmp",
      "rename wal.log.tmp wal.log",
      "syncdir .",
      "truncate wal.log 9",
      "truncate wal.log 9",
  };
  EXPECT_EQ(RunSession(false), expected);
}

}  // namespace
}  // namespace lossyts::serve
