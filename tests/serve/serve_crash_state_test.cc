// Power-loss crash states for a shard. The chaos battery kills the process,
// which leaves every written byte in the page cache; this oracle instead
// asks what a machine that loses power may leave on disk.
//
// A scripted session runs with the durable-file op log installed. Replaying
// the log under a POSIX persistence model (the one of ALICE, Pillai et al.,
// "All File Systems Are Not Created Equal", OSDI 2014, and of LevelDB's
// fault-injection env), every prefix of the log is a crash point, and each
// crash point allows these on-disk states:
//
//   * a file keeps the content it had at its last fsync plus any prefix of
//     the appends and truncates issued since; the last kept append may be
//     torn (1 byte, half, or all but one byte when enumerating; any length
//     when sampling);
//   * a create, rename or unlink survives only once its directory has been
//     fsynced after it; before that each one may or may not have happened.
//
// Each state is written into a fresh directory from the log alone, then
// recovered with Shard::Open. The contract checked on every state:
//
//   * every op whose WAL record was fsynced before the crash point (so the
//     shard had applied it and readers could see it) is present, bit-exact;
//   * no op is half-visible, and none is present before its record was
//     written;
//   * every surviving `.lts` opens, clean or salvaged.
//
// States are enumerated when a crash point allows at most
// kEnumerateLimit of them and sampled with a fixed seed above that;
// LOSSYTS_SERVE_CHAOS_ITERS scales the samples per crash point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/durable_file.h"
#include "serve/shard.h"
#include "store/reader.h"

namespace lossyts::serve {
namespace {

namespace fs = std::filesystem;
using durable::Op;
using durable::OpKind;

constexpr size_t kEnumerateLimit = 32;
constexpr size_t kListedDirOps = 5;  // 2^5 namespaces = kEnumerateLimit.
constexpr int kSeriesCount = 3;

int SamplesPerCrashPoint() {
  int iterations = 200;
  const char* env = std::getenv("LOSSYTS_SERVE_CHAOS_ITERS");
  if (env != nullptr && *env != '\0' && std::atoi(env) > 0) {
    iterations = std::atoi(env);
  }
  return std::max(1, iterations / 10);
}

std::string SeriesName(int series) {
  std::string name = "s";
  name += std::to_string(series);
  return name;
}

double Value(int series, size_t index) {
  return static_cast<double>(series + 1) * 100.0 +
         static_cast<double>(index) * 0.375 - 7.0;
}

// ---- The persistence model ----------------------------------------------

// An append (bytes) or a truncate (size) not yet covered by an fsync.
struct DataOp {
  bool truncate = false;
  uint64_t size = 0;
  std::vector<uint8_t> bytes;
};

struct Inode {
  std::vector<uint8_t> synced;
  std::vector<uint8_t> current;
  std::vector<DataOp> unsynced;
};

// A create, rename or unlink not yet covered by a directory fsync.
struct DirOp {
  OpKind kind = OpKind::kCreate;
  std::string name;
  std::string target;
  size_t inode = 0;
};

// One directory of regular files, driven op by op through the log.
class FsModel {
 public:
  explicit FsModel(std::string dir) : dir_(std::move(dir)) {}

  // Applies one logged call; false when it falls outside the model (another
  // directory, a subdirectory, an unknown file).
  bool Apply(const Op& op) {
    if (op.kind == OpKind::kSyncDir) {
      if (op.path != dir_) return false;
      durable_names_ = names_;
      pending_.clear();
      return true;
    }
    std::string name;
    if (!NameOf(op.path, &name)) return false;
    auto it = names_.find(name);
    switch (op.kind) {
      case OpKind::kCreate:
        if (it != names_.end()) return false;  // O_TRUNC is not modelled.
        inodes_.emplace_back();
        names_[name] = inodes_.size() - 1;
        pending_.push_back({OpKind::kCreate, name, "", inodes_.size() - 1});
        return true;
      case OpKind::kAppend: {
        if (it == names_.end()) return false;
        Inode& inode = inodes_[it->second];
        inode.current.insert(inode.current.end(), op.bytes.begin(),
                             op.bytes.end());
        inode.unsynced.push_back({false, 0, op.bytes});
        return true;
      }
      case OpKind::kTruncate: {
        if (it == names_.end()) return false;
        Inode& inode = inodes_[it->second];
        inode.current.resize(op.size);
        inode.unsynced.push_back({true, op.size, {}});
        return true;
      }
      case OpKind::kSync: {
        if (it == names_.end()) return false;
        Inode& inode = inodes_[it->second];
        inode.synced = inode.current;
        inode.unsynced.clear();
        return true;
      }
      case OpKind::kRename: {
        std::string target;
        if (it == names_.end() || !NameOf(op.target, &target)) return false;
        const size_t inode = it->second;
        names_.erase(it);
        names_[target] = inode;
        pending_.push_back({OpKind::kRename, name, target, inode});
        return true;
      }
      case OpKind::kUnlink: {
        if (it == names_.end()) return false;
        pending_.push_back({OpKind::kUnlink, name, "", it->second});
        names_.erase(it);
        return true;
      }
      default:
        return false;  // kMkdir: the session directory exists beforehand.
    }
  }

  // The namespace a crash leaves when exactly the pending directory ops in
  // `mask` reached the disk (ops past the 64th never do).
  std::map<std::string, size_t> Names(uint64_t mask) const {
    std::map<std::string, size_t> names = durable_names_;
    for (size_t j = 0; j < pending_.size(); ++j) {
      if (j >= 64 || (mask >> j & 1) == 0) continue;
      const DirOp& op = pending_[j];
      auto it = names.find(op.name);
      const bool holds = it != names.end() && it->second == op.inode;
      if (op.kind == OpKind::kCreate) {
        names[op.name] = op.inode;
      } else if (holds && op.kind == OpKind::kRename) {
        names.erase(it);
        names[op.target] = op.inode;
      } else if (holds) {
        names.erase(it);
      }
    }
    return names;
  }

  // The content of `inode` when its first `kept` unsynced ops reached the
  // disk, the last one cut to `torn` bytes if it is an append and `torn`
  // is non-zero.
  std::vector<uint8_t> Content(size_t inode, size_t kept, size_t torn) const {
    const Inode& node = inodes_[inode];
    std::vector<uint8_t> content = node.synced;
    for (size_t j = 0; j < kept; ++j) {
      const DataOp& op = node.unsynced[j];
      if (op.truncate) {
        content.resize(op.size);
      } else {
        const size_t n = j + 1 == kept && torn > 0 ? torn : op.bytes.size();
        content.insert(content.end(), op.bytes.begin(), op.bytes.begin() + n);
      }
    }
    return content;
  }

  // Every (kept, torn) choice the enumeration visits for `inode`.
  std::vector<std::pair<size_t, size_t>> Choices(size_t inode) const {
    std::vector<std::pair<size_t, size_t>> choices = {{0, 0}};
    const std::vector<DataOp>& unsynced = inodes_[inode].unsynced;
    for (size_t kept = 1; kept <= unsynced.size(); ++kept) {
      choices.push_back({kept, 0});
      const size_t n = unsynced[kept - 1].bytes.size();
      std::set<size_t> tears;
      for (size_t t : {size_t{1}, n / 2, n - 1}) {
        if (!unsynced[kept - 1].truncate && t > 0 && t < n) tears.insert(t);
      }
      for (size_t t : tears) choices.push_back({kept, t});
    }
    return choices;
  }

  // A uniformly drawn kept count, torn half the time at a uniform length.
  std::pair<size_t, size_t> DrawChoice(size_t inode,
                                       std::mt19937_64& rng) const {
    const std::vector<DataOp>& unsynced = inodes_[inode].unsynced;
    const size_t kept = rng() % (unsynced.size() + 1);
    if (kept == 0 || unsynced[kept - 1].truncate) return {kept, 0};
    const size_t n = unsynced[kept - 1].bytes.size();
    if (n < 2 || rng() % 2 == 0) return {kept, 0};
    return {kept, 1 + rng() % (n - 1)};
  }

  size_t pending_dir_ops() const { return pending_.size(); }
  const std::map<std::string, size_t>& names() const { return names_; }
  const std::vector<uint8_t>& current(size_t inode) const {
    return inodes_[inode].current;
  }

 private:
  bool NameOf(const std::string& path, std::string* name) const {
    if (path.size() <= dir_.size() + 1 || path.rfind(dir_ + "/", 0) != 0) {
      return false;
    }
    *name = path.substr(dir_.size() + 1);
    return name->find('/') == std::string::npos;
  }

  std::string dir_;
  std::vector<Inode> inodes_;
  std::map<std::string, size_t> names_;
  std::map<std::string, size_t> durable_names_;
  std::vector<DirOp> pending_;
};

// ---- The session ---------------------------------------------------------

// One scripted append op and where the log says it became real.
struct ScriptOp {
  int series = 0;
  size_t first = 0;       // Series index of the op's first point.
  size_t count = 0;
  size_t logged_at = 0;   // Log length once its WAL record was written.
  size_t durable_at = 0;  // Log length once that record was fsynced.
};

struct Session {
  std::vector<Op> log;
  std::vector<ScriptOp> ops;
  std::map<std::string, std::vector<uint8_t>> final_files;
};

ShardOptions CrashOptions(bool sync) {
  ShardOptions options;
  options.codecs = {"GORILLA"};  // Lossless: recovery is bit-exact.
  options.chunk_span = 4;
  options.flush_wal_bytes = 0;  // Checkpoint after every batch.
  options.sync = sync;
  return options;
}

std::map<std::string, std::vector<uint8_t>> ReadDir(const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::ifstream file(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  }
  return files;
}

// Six batches (single- and multi-op) over three series, with a reopen
// after the third; every batch checkpoints.
Session RunSession(const std::string& dir, bool sync) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const ShardOptions options = CrashOptions(sync);
  const std::vector<std::vector<std::pair<int, size_t>>> batches = {
      {{0, 3}},
      {{1, 5}, {2, 2}},
      {{0, 6}},
      {{0, 1}, {1, 2}, {2, 7}},
      {{2, 4}},
      {{1, 25}, {0, 2}},
  };
  const std::string wal = dir + "/wal.log";

  Session session;
  size_t points[kSeriesCount] = {0, 0, 0};
  durable::OpLog log;
  durable::InstallOpLog(&log);
  auto logged = [&log] {
    std::lock_guard<std::mutex> lock(log.mu);
    return log.ops;
  };
  std::unique_ptr<Shard> shard;
  auto open = [&] {
    shard.reset();
    Result<std::unique_ptr<Shard>> opened = Shard::Open(dir, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (opened.ok()) shard = std::move(*opened);
    return shard != nullptr;
  };
  for (size_t b = 0; b < batches.size(); ++b) {
    if ((b == 0 || b == 3) && !open()) break;
    std::vector<AppendOp> batch;
    const size_t first_op = session.ops.size();
    for (const auto& [series, count] : batches[b]) {
      AppendOp op;
      op.series = SeriesName(series);
      op.interval_seconds = 60;
      op.first_timestamp = static_cast<int64_t>(points[series]) * 60;
      for (size_t i = 0; i < count; ++i) {
        op.values.push_back(Value(series, points[series] + i));
      }
      session.ops.push_back({series, points[series], count, 0, 0});
      points[series] += count;
      batch.push_back(std::move(op));
    }
    const size_t before = logged().size();
    for (const Status& s : shard->AppendBatch(batch)) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    // The batch's WAL appends, in op order, then its group-commit fsync.
    const std::vector<Op> ops = logged();
    size_t next = first_op;
    for (size_t i = before; i < ops.size(); ++i) {
      if (ops[i].path != wal) continue;
      if (ops[i].kind == OpKind::kAppend && next < session.ops.size()) {
        session.ops[next++].logged_at = i + 1;
      } else if (ops[i].kind == OpKind::kSync) {
        for (size_t j = first_op; j < session.ops.size(); ++j) {
          session.ops[j].durable_at = i + 1;
        }
        break;
      }
    }
    EXPECT_EQ(next, session.ops.size()) << "batch " << b;
    EXPECT_GT(session.ops.back().durable_at, 0u) << "batch " << b;
  }
  shard.reset();
  durable::InstallOpLog(nullptr);
  session.log = log.ops;
  session.final_files = ReadDir(dir);
  return session;
}

// ---- The oracle ----------------------------------------------------------

struct Report {
  size_t crash_points = 0;
  size_t enumerated = 0;
  size_t sampled = 0;
  std::map<std::string, size_t> violations;  // By kind.
  std::vector<std::string> examples;
  bool model_matches_disk = false;
};

void Violate(Report& report, const std::string& kind,
             const std::string& detail) {
  ++report.violations[kind];
  if (report.examples.size() < 8) {
    report.examples.push_back(kind + ": " + detail);
  }
}

// Writes one crash state into `dir` and checks the recovery contract.
void CheckState(const FsModel& model,
                const std::map<std::string, size_t>& names,
                const std::map<size_t, std::pair<size_t, size_t>>& choices,
                const Session& session, size_t crash_point, bool sync,
                const std::string& dir, Report& report) {
  // Emptying the directory is several times cheaper than recreating it.
  fs::create_directories(dir);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    fs::remove_all(entry.path());
  }
  for (const auto& [name, inode] : names) {
    const auto [kept, torn] = choices.at(inode);
    const std::vector<uint8_t> content = model.Content(inode, kept, torn);
    std::ofstream file(dir + "/" + name, std::ios::binary);
    file.write(reinterpret_cast<const char*>(content.data()),
               static_cast<std::streamsize>(content.size()));
  }
  const std::string where = "crash point " + std::to_string(crash_point);

  for (const auto& [name, inode] : names) {
    if (name.ends_with(".lts") &&
        !store::StoreReader::Open(dir + "/" + name).ok()) {
      Violate(report, "unreadable store", where + ", " + name);
    }
  }
  auto shard = Shard::Open(dir, CrashOptions(sync));
  if (!shard.ok()) {
    Violate(report, "open failed", where + ", " + shard.status().ToString());
    return;
  }
  for (int s = 0; s < kSeriesCount; ++s) {
    auto read = (*shard)->ReadRange(SeriesName(s), 0, int64_t{1} << 40);
    const size_t n = read.ok() ? read->values().size() : 0;
    const std::string series = where + ", " + SeriesName(s);
    for (size_t i = 0; i < n; ++i) {
      const double got = read->values()[i];
      const double want = Value(s, i);
      if (std::memcmp(&got, &want, sizeof(double)) != 0) {
        Violate(report, "wrong value", series + " point " + std::to_string(i));
        break;
      }
    }
    size_t owed = 0;
    size_t boundary = 0;
    bool on_boundary = n == 0;
    bool phantom = false;
    for (const ScriptOp& op : session.ops) {
      if (op.series != s) continue;
      if (op.durable_at <= crash_point) owed = op.first + op.count;
      if (op.first < n) {
        boundary = op.first + op.count;
        on_boundary = boundary == n;
        phantom = phantom || op.logged_at > crash_point;
      }
    }
    if (n < owed) {
      Violate(report, "lost acked write",
              series + " has " + std::to_string(n) + " of " +
                  std::to_string(owed) + " owed points");
    }
    if (!on_boundary) {
      Violate(report, "half-visible op",
              series + " recovered " + std::to_string(n) + " points");
    } else if (phantom) {
      Violate(report, "phantom op",
              series + " recovered " + std::to_string(n) + " points");
    }
  }
}

Report RunOracle(bool sync) {
  const std::string base = ::testing::TempDir() + "serve_crash_state_" +
                           (sync ? std::string("sync") : std::string("nosync"));
  const std::string session_dir = base + "_session";
  const std::string replay_dir = base + "_replay";
  const Session session = RunSession(session_dir, sync);
  const int samples = SamplesPerCrashPoint();

  Report report;
  FsModel model(session_dir);
  for (size_t k = 0; k <= session.log.size(); ++k) {
    if (k > 0 && !model.Apply(session.log[k - 1])) {
      Violate(report, "op outside the model", std::to_string(k - 1));
      break;
    }
    ++report.crash_points;
    // Count the states: per namespace, the product of its files' choices.
    // With more than kListedDirOps pending directory ops the namespaces
    // alone exceed kEnumerateLimit, so they are drawn, not listed.
    const size_t dir_ops = model.pending_dir_ops();
    std::vector<std::map<std::string, size_t>> namespaces;
    std::map<size_t, std::vector<std::pair<size_t, size_t>>> choices;
    size_t total = kEnumerateLimit + 1;
    if (dir_ops <= kListedDirOps) {
      total = 0;
      for (uint64_t mask = 0; mask < (uint64_t{1} << dir_ops); ++mask) {
        namespaces.push_back(model.Names(mask));
        size_t states = 1;
        for (const auto& [name, inode] : namespaces.back()) {
          if (!choices.count(inode)) choices[inode] = model.Choices(inode);
          states =
              std::min(states * choices[inode].size(), kEnumerateLimit + 1);
        }
        total = std::min(total + states, kEnumerateLimit + 1);
      }
    }

    if (total <= kEnumerateLimit) {
      for (const std::map<std::string, size_t>& names : namespaces) {
        std::vector<size_t> inodes;
        for (const auto& [name, inode] : names) inodes.push_back(inode);
        std::vector<size_t> digit(inodes.size(), 0);
        while (true) {  // Mixed-radix walk over every file's choices.
          std::map<size_t, std::pair<size_t, size_t>> pick;
          for (size_t i = 0; i < inodes.size(); ++i) {
            pick[inodes[i]] = choices[inodes[i]][digit[i]];
          }
          CheckState(model, names, pick, session, k, sync, replay_dir, report);
          ++report.enumerated;
          size_t i = 0;
          while (i < inodes.size() &&
                 ++digit[i] == choices[inodes[i]].size()) {
            digit[i++] = 0;
          }
          if (i == inodes.size()) break;
        }
      }
    } else {
      std::mt19937_64 rng(0x5EEDC4A5u + k);
      for (int i = 0; i < samples; ++i) {
        // Each pending directory op survives with probability 1/2.
        const uint64_t mask =
            dir_ops >= 64 ? rng() : rng() % (uint64_t{1} << dir_ops);
        const std::map<std::string, size_t> names = model.Names(mask);
        std::map<size_t, std::pair<size_t, size_t>> pick;
        for (const auto& [name, inode] : names) {
          pick[inode] = model.DrawChoice(inode, rng);
        }
        CheckState(model, names, pick, session, k, sync, replay_dir, report);
        ++report.sampled;
      }
    }
  }

  // The model must account for every byte the session left on disk.
  std::map<std::string, std::vector<uint8_t>> modeled;
  for (const auto& [name, inode] : model.names()) {
    modeled[name] = model.current(inode);
  }
  report.model_matches_disk = modeled == session.final_files;
  fs::remove_all(session_dir);
  fs::remove_all(replay_dir);
  return report;
}

std::string Describe(const Report& report) {
  std::string text = std::to_string(report.crash_points) + " crash points, " +
                     std::to_string(report.enumerated) + " enumerated and " +
                     std::to_string(report.sampled) + " sampled states";
  for (const auto& [kind, count] : report.violations) {
    text += "; " + std::to_string(count) + " x " + kind;
  }
  for (const std::string& example : report.examples) text += "\n  " + example;
  return text;
}

TEST(ServeCrashStateTest, SyncShardRecoversFromEveryPowerLossState) {
  const Report report = RunOracle(true);
  EXPECT_TRUE(report.model_matches_disk);
  EXPECT_TRUE(report.violations.empty()) << Describe(report);
  EXPECT_GT(report.enumerated, 0u);
  EXPECT_GT(report.sampled, 0u) << Describe(report);
  RecordProperty("crash_points", static_cast<int>(report.crash_points));
  RecordProperty("enumerated_states", static_cast<int>(report.enumerated));
  RecordProperty("sampled_states", static_cast<int>(report.sampled));
}

// Negative control: with sync off the checkpoint store is renamed into
// place, and the WAL reset's directory fsync makes that rename durable,
// before any of the store's data is fsynced. A power loss there keeps the
// reset WAL and an empty or torn store, so acked points are gone; the
// oracle must see it.
TEST(ServeCrashStateTest, NoSyncCheckpointLosesAckedWritesOnPowerLoss) {
  const Report report = RunOracle(false);
  EXPECT_TRUE(report.model_matches_disk);
  EXPECT_GT(report.violations.count("lost acked write"), 0u)
      << Describe(report);
}

}  // namespace
}  // namespace lossyts::serve
