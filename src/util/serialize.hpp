/// \file serialize.hpp
/// \brief Minimal binary (de)serialization for persisting schemes.
///
/// Fixed little-endian layout, explicit sizes, a magic/version header per
/// top-level object, and fail-loud reads (std::invalid_argument on
/// truncation or corruption). Everything goes through memory: the writer
/// appends to a std::string, the reader walks a byte span, so a persisted
/// scheme is encoded and decoded in one pass with no stream machinery in
/// between. The reader tracks the absolute byte offset it has consumed and
/// every failure message carries it — a truncated or bit-flipped input
/// reports *where* it died, which is what makes the persistence tier's
/// corruption diagnostics actionable. Used by core/scheme_io and
/// src/persist to persist preprocessed routing schemes so that routers can
/// load tables instead of re-running preprocessing.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace croute {

static_assert(std::endian::native == std::endian::little,
              "big-endian hosts need byte swaps in util/serialize.hpp");

/// Appends little-endian scalars and length-prefixed arrays to a string.
class BufferWriter {
 public:
  explicit BufferWriter(std::string& out) : out_(&out) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) {
    static_assert(sizeof(double) == 8);
    raw(&v, 8);
  }

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    static_assert(sizeof(T) == 4);
    u64(v.size());
    raw(v.data(), v.size() * 4);
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * 8);
  }

  void raw(const void* p, std::size_t bytes) {
    if (bytes > 0) out_->append(static_cast<const char*>(p), bytes);
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reader over a byte span. Every read is
/// checked against the bytes left, and every element count is checked
/// against them *before* anything is sized from it: a hostile length
/// prefix fails here with std::invalid_argument, never in operator new.
class SpanReader {
 public:
  /// \p base_offset is the absolute offset of bytes[0] in the enclosing
  /// file, so messages from a section reader point into the whole file.
  explicit SpanReader(std::string_view bytes, std::uint64_t base_offset = 0)
      : data_(bytes.data()), size_(bytes.size()), base_(base_offset) {}

  std::uint64_t offset() const noexcept { return base_ + pos_; }
  std::uint64_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }

  /// Reads a u64 element count and checks that that many elements, of
  /// at least \p min_elem_bytes each, still fit in the span.
  std::uint64_t count(std::uint64_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_elem_bytes) {
      throw std::invalid_argument("implausible element count " +
                                  std::to_string(n) + " at byte offset " +
                                  std::to_string(offset() - 8));
    }
    return n;
  }

  template <typename T>
  std::vector<T> vec_u32() {
    static_assert(sizeof(T) == 4);
    return vec<T>();
  }
  std::vector<double> vec_f64() { return vec<double>(); }

  /// The next \p len bytes, viewed in place.
  std::string_view bytes(std::uint64_t len) {
    need(len);
    const std::string_view v(data_ + pos_, len);
    pos_ += len;
    return v;
  }

 private:
  void need(std::uint64_t len) {
    if (len > remaining()) {
      throw std::invalid_argument(
          "truncated at byte offset " + std::to_string(offset()) +
          " (wanted " + std::to_string(len) + " more bytes)");
    }
  }
  template <typename T>
  T scalar() {
    need(sizeof(T));
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> vec() {
    const std::uint64_t n = count(sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  const char* data_;
  std::uint64_t size_;
  std::uint64_t base_;
  std::uint64_t pos_ = 0;
};

}  // namespace croute
