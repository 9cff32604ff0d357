// The durable-file seam (src/core/durable_file.{h,cc}): writes, truncating
// reopen, atomic replace, whole-file reads and the op log that records
// every mutating call.

#include "core/durable_file.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace lossyts::durable {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  EXPECT_TRUE(EnsureDir(dir).ok());
  return dir;
}

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

TEST(DurableFileTest, AppendedBytesReadBack) {
  const std::string path = FreshDir("durable_append") + "/f";
  Result<File> file = File::Create(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->Append(Bytes("hello ")).ok());
  ASSERT_TRUE(file->Append(Bytes("world")).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  Result<std::vector<uint8_t>> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes("hello world"));
}

TEST(DurableFileTest, OpenAppendCutsTheTailThenAppends) {
  const std::string path = FreshDir("durable_reopen") + "/log";
  {
    Result<File> file = File::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append(Bytes("validTORN")).ok());
  }
  Result<File> file = File::OpenAppend(path, 5);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->Append(Bytes("+more")).ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(*ReadFile(path), Bytes("valid+more"));
  EXPECT_EQ(File::OpenAppend(path + ".missing", 0).status().code(),
            StatusCode::kIoError);
}

TEST(DurableFileTest, AtomicReplaceLogsItsWholeProtocol) {
  const std::string dir = FreshDir("durable_replace");
  const std::string path = dir + "/count";
  OpLog log;
  InstallOpLog(&log);
  const Status first = AtomicReplace(path, Bytes("1\n"));
  const Status second = AtomicReplace(path, Bytes("22\n"));
  InstallOpLog(nullptr);
  ASSERT_TRUE(first.ok()) << first.ToString();
  ASSERT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(*ReadFile(path), Bytes("22\n"));
  EXPECT_EQ(ReadFile(path + ".tmp").status().code(), StatusCode::kNotFound);

  const std::vector<Op> ops = log.ops;
  ASSERT_EQ(ops.size(), 10u);
  const OpKind kinds[] = {OpKind::kCreate, OpKind::kAppend, OpKind::kSync,
                          OpKind::kRename, OpKind::kSyncDir};
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ops[i].kind, kinds[i % 5]);
    EXPECT_EQ(ops[i].path, ops[i].kind == OpKind::kSyncDir ? dir
                                                            : path + ".tmp");
  }
  EXPECT_EQ(ops[1].bytes, Bytes("1\n"));
  EXPECT_EQ(ops[3].target, path);
  EXPECT_EQ(ops[6].bytes, Bytes("22\n"));
}

TEST(DurableFileTest, LogRecordsOnlyWhileInstalledAndOnlyRealChanges) {
  const std::string dir = FreshDir("durable_log");
  ASSERT_TRUE(AtomicReplace(dir + "/unlogged", Bytes("x")).ok());
  OpLog log;
  InstallOpLog(&log);
  EXPECT_TRUE(EnsureDir(dir).ok());  // Exists already: no mkdir.
  EXPECT_TRUE(EnsureDir(dir + "/sub").ok());
  EXPECT_TRUE(Unlink(dir + "/unlogged").ok());
  EXPECT_FALSE(Unlink(dir + "/unlogged").ok());
  EXPECT_TRUE(ReadFile(dir + "/missing").status().code() ==
              StatusCode::kNotFound);
  InstallOpLog(nullptr);
  const std::vector<Op> ops = log.ops;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, OpKind::kMkdir);
  EXPECT_EQ(ops[0].path, dir + "/sub");
  EXPECT_EQ(ops[1].kind, OpKind::kSyncDir);
  EXPECT_EQ(ops[1].path, dir);
  EXPECT_EQ(ops[2].kind, OpKind::kUnlink);
  EXPECT_EQ(ops[2].path, dir + "/unlogged");
}

// A directory EnsureDir creates is made durable in its parent; one that
// already exists costs no call at all. Trailing slashes name the same
// directory.
TEST(DurableFileTest, EnsureDirSyncsTheParentOnlyWhenItCreates) {
  const std::string parent = FreshDir("durable_ensure");
  OpLog log;
  InstallOpLog(&log);
  EXPECT_TRUE(EnsureDir(parent + "/d").ok());
  EXPECT_TRUE(EnsureDir(parent + "/d").ok());
  EXPECT_TRUE(EnsureDir(parent + "/e//").ok());
  InstallOpLog(nullptr);
  const std::vector<Op> ops = log.ops;
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, OpKind::kMkdir);
  EXPECT_EQ(ops[0].path, parent + "/d");
  EXPECT_EQ(ops[1].kind, OpKind::kSyncDir);
  EXPECT_EQ(ops[1].path, parent);
  EXPECT_EQ(ops[2].kind, OpKind::kMkdir);
  EXPECT_EQ(ops[2].path, parent + "/e//");
  EXPECT_EQ(ops[3].kind, OpKind::kSyncDir);
  EXPECT_EQ(ops[3].path, parent);
}

TEST(DurableFileTest, ReadFileRefusesMissingFilesAndDirectories) {
  const std::string dir = FreshDir("durable_read");
  EXPECT_EQ(ReadFile(dir + "/nope").status().code(), StatusCode::kNotFound);
  const Status not_regular = ReadFile(dir).status();
  EXPECT_EQ(not_regular.code(), StatusCode::kIoError);
  EXPECT_NE(not_regular.message().find("not a regular file"),
            std::string::npos);
  ASSERT_TRUE(AtomicReplace(dir + "/empty", {}).ok());
  Result<std::vector<uint8_t>> empty = ReadFile(dir + "/empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(DurableFileTest, ParentDirOfEveryPathShape) {
  EXPECT_EQ(ParentDir("file"), ".");
  EXPECT_EQ(ParentDir("/file"), "/");
  EXPECT_EQ(ParentDir("dir/file"), "dir");
  EXPECT_EQ(ParentDir("/a/b/file"), "/a/b");
}

}  // namespace
}  // namespace lossyts::durable
