#ifndef LOSSYTS_SERVE_FIELDS_H_
#define LOSSYTS_SERVE_FIELDS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/serde.h"
#include "core/status.h"

namespace lossyts::serve {

// The two visitors that walk a message's field list: the protocol messages
// in protocol.cc and the WAL record body in wal.cc. A field list is one
// function template, `template <typename V, typename M> void XFields(V& v,
// M& m)`, that hands each field to `v` in wire order. FieldWriter appends
// the fields of a const message; FieldReader parses them back into a
// default-constructed one. Fields encode as (little-endian, through
// compress::ByteWriter):
//
//   u8 / i32 / u32 / i64 / u64 / f64   fixed width
//   std::string          u8 length, bytes
//   LongString           u32 length, bytes (at most kMaxLongStringBytes)
//   std::vector<double>  u32 count, count x f64
//   List, vector<string> u32 count, count x element

/// Long strings (error messages) longer than this are truncated on encode
/// and refused on decode; the cap keeps a reply frame small no matter what a
/// Status carries.
inline constexpr size_t kMaxLongStringBytes = 4096;

class FieldWriter {
 public:
  void Field(uint8_t v) { writer_.PutU8(v); }
  void Field(int32_t v) { writer_.PutI32(v); }
  void Field(uint32_t v) { writer_.PutU32(v); }
  void Field(int64_t v) { writer_.PutI64(v); }
  void Field(uint64_t v) { writer_.PutU64(v); }
  void Field(double v) { writer_.PutDouble(v); }
  /// Callers keep `s` within 255 bytes: request strings pass
  /// ValidateRequest first, WAL ids pass WalWriter::Append's check, and a
  /// reply's strings are series names the daemon accepted (at most 128
  /// bytes), groups cut from them, metric names and codec names.
  void Field(const std::string& s) {
    writer_.PutU8(static_cast<uint8_t>(s.size()));
    PutChars(s, s.size());
  }
  void Field(const std::vector<double>& values) {
    writer_.PutU32(static_cast<uint32_t>(values.size()));
    for (const double v : values) writer_.PutDouble(v);
  }
  void Field(const std::vector<std::string>& names) {
    List(names, [](FieldWriter& w, const std::string& s) { w.Field(s); });
  }
  void LongString(const std::string& s) {
    const size_t n = std::min(s.size(), kMaxLongStringBytes);
    writer_.PutU32(static_cast<uint32_t>(n));
    PutChars(s, n);
  }
  /// A count, then `fields(*this, item)` for each item.
  template <typename T, typename Fn>
  void List(const std::vector<T>& items, Fn&& fields) {
    writer_.PutU32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) fields(*this, item);
  }

  std::vector<uint8_t> Finish() { return writer_.Finish(); }

 private:
  void PutChars(const std::string& s, size_t n) {
    writer_.PutBytes({reinterpret_cast<const uint8_t*>(s.data()), n});
  }

  compress::ByteWriter writer_;
};

/// Keeps the first error: once a field fails, every later call is a no-op.
/// Every count is checked against the bytes left before anything is
/// allocated for it.
class FieldReader {
 public:
  explicit FieldReader(std::span<const uint8_t> bytes)
      : reader_(bytes.data(), bytes.size()) {}

  void Field(uint8_t& v) { Get(&compress::ByteReader::GetU8, v); }
  void Field(int32_t& v) { Get(&compress::ByteReader::GetI32, v); }
  void Field(uint32_t& v) { Get(&compress::ByteReader::GetU32, v); }
  void Field(int64_t& v) { Get(&compress::ByteReader::GetI64, v); }
  void Field(uint64_t& v) { Get(&compress::ByteReader::GetU64, v); }
  void Field(double& v) { Get(&compress::ByteReader::GetDouble, v); }
  void Field(std::string& s) {
    uint8_t size = 0;
    Field(size);
    GetChars(size, s);
  }
  void Field(std::vector<double>& values) {
    uint32_t count = 0;
    Field(count);
    if (ok() &&
        static_cast<uint64_t>(count) * sizeof(double) > reader_.remaining()) {
      Fail("double list count is implausible");
    }
    if (!ok()) return;
    values.resize(count);
    for (double& v : values) v = *reader_.GetDouble();
  }
  void Field(std::vector<std::string>& names) {
    List(names, [](FieldReader& r, std::string& s) { r.Field(s); });
  }
  void LongString(std::string& s) {
    uint32_t size = 0;
    Field(size);
    if (ok() && size > kMaxLongStringBytes) {
      Fail("message length field is implausible");
    }
    GetChars(size, s);
  }
  template <typename T, typename Fn>
  void List(std::vector<T>& items, Fn&& fields) {
    uint32_t count = 0;
    Field(count);
    // Each element costs at least one byte; a count past the payload is
    // corrupt, not a huge allocation.
    if (ok() && count > reader_.remaining()) Fail("list count is implausible");
    if (!ok()) return;
    items.reserve(count);
    for (uint32_t i = 0; i < count && ok(); ++i) {
      fields(*this, items.emplace_back());
    }
  }

  bool ok() const { return status_.ok(); }
  /// The first error; else Corruption when bytes are left after the last
  /// field, since every message ends exactly at its payload's end.
  Status Finish() const {
    if (ok() && reader_.remaining() != 0) {
      return Status::Corruption("message carries unexpected trailing bytes");
    }
    return status_;
  }

 private:
  template <typename T>
  void Get(Result<T> (compress::ByteReader::*get)(), T& out) {
    if (!ok()) return;
    Result<T> v = (reader_.*get)();
    if (v.ok()) {
      out = *v;
    } else {
      status_ = v.status();
    }
  }
  void GetChars(size_t size, std::string& s) {
    if (!ok()) return;
    if (size > reader_.remaining()) {
      Fail("string field truncated");
      return;
    }
    s.assign(reinterpret_cast<const char*>(reader_.current()), size);
    (void)reader_.Skip(size);
  }
  void Fail(const char* message) { status_ = Status::Corruption(message); }

  compress::ByteReader reader_;
  Status status_ = Status::OK();
};

}  // namespace lossyts::serve

#endif  // LOSSYTS_SERVE_FIELDS_H_
