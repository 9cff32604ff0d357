#include "core/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace lossyts::durable {

namespace {

std::atomic<OpLog*> g_op_log{nullptr};

// Builds the entry only when a log is installed.
template <typename MakeOp>
void Record(MakeOp make_op) {
  if (OpLog* log = g_op_log.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(log->mu);
    log->ops.push_back(make_op());
  }
}

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

void InstallOpLog(OpLog* log) {
  g_op_log.store(log, std::memory_order_release);
}

Result<File> File::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot create " + path);
  Record([&] { return Op{.kind = OpKind::kCreate, .path = path}; });
  return File(path, fd);
}

Result<File> File::OpenAppend(const std::string& path, uint64_t keep_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return Errno("cannot open " + path + " for appending");
  File file(path, fd);
  if (::ftruncate(fd, static_cast<off_t>(keep_bytes)) != 0) {
    return Errno("truncate of " + path + " failed");
  }
  Record([&] {
    return Op{.kind = OpKind::kTruncate, .path = path, .size = keep_bytes};
  });
  if (::lseek(fd, 0, SEEK_END) < 0) return Errno("seek in " + path + " failed");
  return file;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

Status File::Append(std::span<const uint8_t> bytes) {
  Status status = Status::OK();
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      status = Errno("write to " + path_ + " failed");
      break;
    }
    written += static_cast<size_t>(n);
  }
  if (written > 0) {
    Record([&] {
      return Op{.kind = OpKind::kAppend, .path = path_,
                .bytes = {bytes.begin(), bytes.begin() + written}};
    });
  }
  return status;
}

Status File::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync of " + path_ + " failed");
  Record([&] { return Op{.kind = OpKind::kSync, .path = path_}; });
  return Status::OK();
}

Status File::Close() {
  const int rc = ::close(std::exchange(fd_, -1));
  if (rc != 0) return Errno("closing " + path_ + " failed");
  return Status::OK();
}

Status AtomicReplace(const std::string& path, std::span<const uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  Result<File> file = File::Create(tmp);
  if (!file.ok()) return file.status();
  Status s = file->Append(bytes);
  if (s.ok()) s = file->Sync();
  const Status closed = file->Close();
  if (!s.ok()) return s;
  if (!closed.ok()) return closed;
  if (Status r = Rename(tmp, path); !r.ok()) return r;
  return SyncDir(ParentDir(path));
}

Status Rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Errno("rename " + from + " -> " + to + " failed");
  }
  Record([&] {
    return Op{.kind = OpKind::kRename, .path = from, .target = to};
  });
  return Status::OK();
}

Status Unlink(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    return Errno("unlink of " + path + " failed");
  }
  Record([&] { return Op{.kind = OpKind::kUnlink, .path = path}; });
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open directory " + dir + " for fsync");
  const int rc = ::fsync(fd);
  const int fsync_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = fsync_errno;
    return Errno("fsync of directory " + dir + " failed");
  }
  Record([&] { return Op{.kind = OpKind::kSyncDir, .path = dir}; });
  return Status::OK();
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) {
    Record([&] { return Op{.kind = OpKind::kMkdir, .path = dir}; });
    return Status::OK();
  }
  if (errno == EEXIST) return Status::OK();
  return Errno("cannot create directory " + dir);
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash == 0 ? 1 : slash);
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) return Status::NotFound("no file at " + path);
  if (fd < 0) return Errno("cannot open " + path);
  std::vector<uint8_t> bytes;
  Status status = Status::OK();
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    status = Errno("reading " + path + " failed");
  } else if (!S_ISREG(st.st_mode)) {
    status = Status::IoError("reading " + path + " failed: not a regular file");
  }
  bytes.resize(status.ok() ? static_cast<size_t>(st.st_size) : 0);
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) status = Errno("reading " + path + " failed");
    if (n <= 0) break;  // An error, or the file shrank after fstat.
    got += static_cast<size_t>(n);
  }
  bytes.resize(got);
  ::close(fd);
  if (!status.ok()) return status;
  return bytes;
}

}  // namespace lossyts::durable
