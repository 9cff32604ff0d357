#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

// Ids of the spans currently open on this thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

uint64_t ThreadTag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void Ledger::Fail(const std::string& what) {
  ++attempted_;
  const uint64_t n = ++failed_;
  if (n <= 20) {
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

void Ledger::Check(bool ok, const std::string& what) {
  if (ok) {
    ++attempted_;
  } else {
    Fail(what);
  }
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, std::string name)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.layer = layer;
  span_.id = tracer_->NextId();
  span_.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span_.start_us = tracer_->MicrosSinceOrigin(start_);
  span_.tid = ThreadTag();
  t_open_spans.push_back(span_.id);
}

double Tracer::Scope::End() {
  if (!open_) return seconds_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_ != nullptr) {
    span_.end_us = tracer_->MicrosSinceOrigin(end);
    if (!t_open_spans.empty()) t_open_spans.pop_back();
    tracer_->Record(std::move(span_));
  }
  return seconds_;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

uint64_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::vector<double> Tracer::SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  // Children run nested inside their parent on the parent's thread, so the
  // time they cover is the sum of their durations.
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) self[it->second] -= s.seconds();
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

std::vector<Tracer::LayerRow> Tracer::LayerTable() const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerRow& row = rows[spans[i].layer];
    row.layer = spans[i].layer;
    ++row.spans;
    row.total_s += spans[i].seconds();
    row.self_s += self[i];
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

double Tracer::LayerSelfUnder(const std::string& root) const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = SelfSeconds(spans);
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer == "bench") continue;
    for (int64_t p = spans[i].parent; p >= 0;) {
      auto it = index.find(p);
      if (it == index.end()) break;
      if (spans[it->second].name == root) {
        total += self[i];
        break;
      }
      p = spans[it->second].parent;
    }
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Spans();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}",
                 i == 0 ? "" : ",", JsonString(s.name).c_str(),
                 JsonString(s.layer).c_str(), s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.tid),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
