// Byte-level serialization helpers shared by the WAL and checkpoint
// codecs: a growable little-endian writer and a bounds-checked reader.
//
// Every on-disk integer is fixed-width little-endian (the only
// platforms this engine targets) and every float is the raw IEEE-754
// bit pattern, so encode/decode round-trips are bit-exact — which is
// what lets the recovery tests assert bit-for-bit equality rather than
// epsilon closeness. The reader never throws and never reads past its
// span: any short or malformed input flips a sticky `ok()` flag the
// caller checks once at the end (torn WAL tails and corrupt
// checkpoints are expected inputs, not exceptions).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dynsld::persist {

/// Append-only little-endian encoder over a std::string buffer (the
/// unit the file backend writes and checksums).
class ByteWriter {
 public:
  /// The bytes encoded so far.
  const std::string& bytes() const { return buf_; }
  /// Move the buffer out (leaves the writer empty).
  std::string take() { return std::move(buf_); }

  /// Fixed-width little-endian integer appends.
  void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(uint32_t v) { raw(&v, 4); }
  void u64(uint64_t v) { raw(&v, 8); }
  /// Raw IEEE-754 bit pattern (bit-exact round trip).
  void f64(double v) { raw(&v, 8); }

  /// Append `len` raw bytes.
  void raw(const void* p, size_t len) {
    buf_.append(static_cast<const char*>(p), len);
  }

  /// Append a whole POD vector: u64 element count, then the raw
  /// elements (the CSR-array workhorse of the snapshot codec).
  template <class T>
  void pod_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
/// Never throws: a short read zero-fills and flips ok() sticky-false,
/// so one check after decoding validates the whole parse.
class ByteReader {
 public:
  /// Borrow [data, data + len); the buffer must outlive the reader.
  ByteReader(const void* data, size_t len)
      : p_(static_cast<const char*>(data)), end_(p_ + len) {}
  /// Borrow a whole string's bytes.
  explicit ByteReader(const std::string& s) : ByteReader(s.data(), s.size()) {}

  /// Every read so far stayed in bounds?
  bool ok() const { return ok_; }
  /// Bytes not yet consumed.
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  /// Fixed-width little-endian integer reads (0 on underrun).
  uint8_t u8() { uint8_t v = 0; raw(&v, 1); return v; }
  uint32_t u32() { uint32_t v = 0; raw(&v, 4); return v; }
  uint64_t u64() { uint64_t v = 0; raw(&v, 8); return v; }
  /// Raw IEEE-754 bit pattern (0.0 on underrun).
  double f64() { double v = 0; raw(&v, 8); return v; }

  /// Copy `len` raw bytes out (zero-fills and fails on underrun).
  void raw(void* out, size_t len) {
    if (static_cast<size_t>(end_ - p_) < len) {
      ok_ = false;
      std::memset(out, 0, len);
      p_ = end_;
      return;
    }
    std::memcpy(out, p_, len);
    p_ += len;
  }

  /// Consume `len` bytes unread (fails on underrun).
  void skip(size_t len) {
    if (remaining() < len) {
      ok_ = false;
      p_ = end_;
      return;
    }
    p_ += len;
  }

  /// Read a pod_vec()-encoded vector; an implausible count (more
  /// elements than bytes remain) fails instead of allocating.
  template <class T>
  std::vector<T> pod_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = u64();
    if (n > remaining() / sizeof(T)) {
      ok_ = false;
      return {};
    }
    std::vector<T> v(static_cast<size_t>(n));
    if (n) raw(v.data(), static_cast<size_t>(n) * sizeof(T));
    return v;
  }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace dynsld::persist
