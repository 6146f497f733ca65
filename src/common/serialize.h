// Binary serialization used for checkpointed operator state and for tuples
// crossing the (simulated or real) wire. Little-endian, length-prefixed,
// no schema evolution — checkpoints never outlive the binary that wrote them.
//
// The writer is on the checkpoint hot path (every epoch serializes every
// operator's state), so appends go through an explicit amortized-growth
// policy and callers that know the final size can pre-reserve via the
// size-hint constructor or adopt a pooled buffer whose capacity survives
// across epochs.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ms {

class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Pre-reserves `size_hint` bytes so a serialize of known (or remembered)
  /// size appends without reallocating.
  explicit BinaryWriter(std::size_t size_hint) { buf_.reserve(size_hint); }

  /// Adopts `buf` as backing storage: contents are discarded, capacity is
  /// kept. Pairs with a buffer pool so repeated checkpoints reuse one
  /// allocation instead of growing a fresh vector every epoch.
  explicit BinaryWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T> && (!std::is_pointer_v<T>)
  void write(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    ensure(sizeof(T));
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Overwrite sizeof(T) bytes already written at `pos` (a length or CRC
  /// field reserved before the bytes it describes).
  template <typename T>
    requires std::is_trivially_copyable_v<T> && (!std::is_pointer_v<T>)
  void write_at(std::size_t pos, const T& v) {
    MS_CHECK_MSG(pos <= buf_.size() && sizeof(T) <= buf_.size() - pos,
                 "BinaryWriter: write_at past the end");
    std::memcpy(buf_.data() + pos, &v, sizeof(T));
  }

  void write_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    ensure(n);
    buf_.insert(buf_.end(), p, p + n);
  }

  void write_string(const std::string& s) {
    ensure(sizeof(std::uint64_t) + s.size());
    write<std::uint64_t>(s.size());
    write_bytes(s.data(), s.size());
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      ensure(sizeof(std::uint64_t) + v.size() * sizeof(T));
      write<std::uint64_t>(v.size());
      write_bytes(v.data(), v.size() * sizeof(T));
    } else {
      write<std::uint64_t>(v.size());
      for (const auto& e : v) e.serialize(*this);
    }
  }

  void reserve(std::size_t total) { buf_.reserve(total); }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return buf_.capacity(); }

 private:
  /// Amortized growth: never let a large append land on a capacity cliff one
  /// element at a time — jump straight to max(need, 2×capacity).
  void ensure(std::size_t extra) {
    const std::size_t need = buf_.size() + extra;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max(need, buf_.capacity() * 2));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T> && (!std::is_pointer_v<T>)
  T read() {
    MS_CHECK_MSG(sizeof(T) <= remaining(), "BinaryReader: out of data");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void read_bytes(void* out, std::size_t n) {
    // `n <= remaining()` rather than `pos_ + n <= size_`: the latter wraps
    // for adversarial n near SIZE_MAX and passes the check.
    MS_CHECK_MSG(n <= remaining(), "BinaryReader: out of data");
    if (n == 0) return;  // empty vectors hand us out == nullptr; memcpy
                         // with a null pointer is UB even for n == 0
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    MS_CHECK_MSG(n <= remaining(), "BinaryReader: bad string length");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  template <typename T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    std::vector<T> v;
    if constexpr (std::is_trivially_copyable_v<T>) {
      // Divide instead of multiplying: `n * sizeof(T)` wraps for adversarial
      // n, making a huge claimed length look in-bounds.
      MS_CHECK_MSG(n <= remaining() / sizeof(T),
                   "BinaryReader: bad vector length");
      v.resize(static_cast<std::size_t>(n));
      read_bytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    } else {
      // Each element consumes at least one byte of input, so `remaining()`
      // bounds any honest length; don't let a corrupt header drive a
      // multi-gigabyte reserve before the first element read fails.
      MS_CHECK_MSG(n <= remaining(), "BinaryReader: bad vector length");
      v.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) v.push_back(T::deserialize(*this));
    }
    return v;
  }

  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ms
