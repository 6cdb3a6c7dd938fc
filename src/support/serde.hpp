// Minimal deterministic binary serialization used for message payloads,
// commitments and anything fed to the hash function. Encoding is
// length-prefixed and big-endian so that serialization is canonical:
// equal values always produce byte-identical encodings.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/bytes.hpp"

namespace cyc {

/// Canonical binary writer. All integers are big-endian; variable-length
/// fields carry a u32 length prefix.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void bytes(BytesView v);
  void str(std::string_view v);

  /// Write a vector of items with a u32 count prefix; `fn(writer, item)`
  /// serializes each element.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn&& fn) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) fn(*this, item);
  }

  const Bytes& out() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Canonical binary reader matching `Writer`. Throws std::out_of_range on
/// truncated input — deserialization failures must never be silent.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  Bytes bytes();
  std::string str();

  /// Read a u32-count-prefixed vector; `fn(reader)` decodes each element,
  /// which encodes to at least `min_element_bytes` bytes.
  template <typename T, typename Fn>
  std::vector<T> vec(std::size_t min_element_bytes, Fn&& fn) {
    std::uint32_t count = u32();
    std::vector<T> out;
    out.reserve(reservable(count, min_element_bytes));
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(fn(*this));
    return out;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// How many of `count` untrusted elements, each encoded in at least
  /// `min_element_bytes` bytes, the unread input can hold: the size to
  /// reserve before decoding them. A forged count then cannot force a
  /// huge allocation; reading past the end still throws out_of_range.
  std::size_t reservable(std::uint32_t count,
                         std::size_t min_element_bytes) const {
    return std::min<std::size_t>(count, remaining() / min_element_bytes);
  }

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace cyc
