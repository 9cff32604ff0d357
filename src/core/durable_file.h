#ifndef LOSSYTS_CORE_DURABLE_FILE_H_
#define LOSSYTS_CORE_DURABLE_FILE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

// The one seam between the storage layers and the file system: every create,
// write, fsync, truncate, rename, unlink, directory fsync and whole-file read
// in src/ goes through it. Callers own the durability protocol (what to fsync
// when); the seam owns the system calls, their EINTR loops and errno text,
// and is where a test observes the file system (OpLog). Each call issues
// exactly the system calls its comment names, in that order.
namespace lossyts::durable {

/// One successful mutating call, with the path as the caller spelled it.
enum class OpKind : uint8_t {
  kMkdir, kCreate, kAppend, kSync, kTruncate, kRename, kUnlink, kSyncDir
};
struct Op {
  OpKind kind = OpKind::kCreate;
  std::string path = {};
  std::string target = {};          ///< kRename.
  std::vector<uint8_t> bytes = {};  ///< kAppend.
  uint64_t size = 0;                ///< kTruncate.
};

/// Test hook in the style of FailPoints: while a log is installed (nullptr
/// uninstalls; the caller keeps it alive until then), every mutating call
/// below appends its Op under `mu`, so read `ops` under `mu` until the log
/// is uninstalled. Only tests install one, so production calls pay one
/// atomic load. Reads are not logged.
struct OpLog {
  std::mutex mu;
  std::vector<Op> ops;
};
void InstallOpLog(OpLog* log);

/// A file open for writing; the destructor closes it, ignoring errors.
class File {
 public:
  /// open() write-only, creating `path` with mode 0644 or truncating it.
  static Result<File> Create(const std::string& path);
  /// open() write-only, ftruncate to `keep_bytes`, lseek to the end: reopens
  /// a log whose valid prefix is `keep_bytes` long.
  static Result<File> OpenAppend(const std::string& path, uint64_t keep_bytes);

  File() = default;
  File(File&& other) noexcept
      : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}
  File& operator=(File&& other) noexcept {
    std::swap(path_, other.path_);
    std::swap(fd_, other.fd_);
    return *this;
  }
  ~File();

  /// write() until every byte is out, retrying EINTR. On error the bytes
  /// already written stay (a torn tail).
  Status Append(std::span<const uint8_t> bytes);
  Status Sync();
  /// The descriptor is released even when close() fails.
  Status Close();

 private:
  File(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

/// Create `path`.tmp, Append `bytes`, Sync, Close, Rename onto `path`, then
/// SyncDir(ParentDir(path)).
Status AtomicReplace(const std::string& path, std::span<const uint8_t> bytes);
Status Rename(const std::string& from, const std::string& to);
Status Unlink(const std::string& path);
/// open() the directory, fsync, close: makes the creates, renames and
/// unlinks inside it durable.
Status SyncDir(const std::string& dir);
/// mkdir() with mode 0755, then SyncDir of the parent so the new entry
/// survives a power loss; an existing directory is fine (and not synced).
Status EnsureDir(const std::string& dir);
/// The directory holding `path`: "." without a slash, "/" for the root.
std::string ParentDir(const std::string& path);
/// Reads the regular file at `path` into one fstat-sized buffer. NotFound
/// when it does not exist; IoError when it cannot be read or is not a
/// regular file.
Result<std::vector<uint8_t>> ReadFile(const std::string& path);

}  // namespace lossyts::durable

#endif  // LOSSYTS_CORE_DURABLE_FILE_H_
