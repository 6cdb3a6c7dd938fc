// Minimal deterministic binary serialization used for message payloads,
// commitments and anything fed to the hash function. Encoding is
// length-prefixed and big-endian so that serialization is canonical:
// equal values always produce byte-identical encodings.
//
// Wire types state their layout once, as a field list in wire order:
//
//   struct Echo {
//     ...
//     template <class IO, class Self>
//     static void fields(IO& io, Self& s) {
//       io(s.id, s.digest, s.member, nested(s.propose_sig));
//     }
//     Bytes serialize() const { return encode(*this); }
//     static Echo deserialize(BytesView b) { return decode<Echo>(b); }
//   };
//
// encode() and decode() walk the same list (Self is const when encoding),
// so the two directions cannot drift apart. Each field encodes by kind:
//   - bool, u32, u64, double: fixed width, big-endian;
//   - an enum: one byte, its underlying value plus kEnumOffset<E>;
//   - Bytes: a u32 length, then the bytes;
//   - std::array<u8, N> (digests): as Bytes; decoding throws
//     std::invalid_argument unless the length is exactly N;
//   - std::vector<E>: a u32 count, then each element by its kind;
//   - a type with its own fields(): those fields, inline;
//   - nested(x): a u32 length, then x's encoding; nested_each(v): a vector
//     whose elements are each nested;
//   - Literal{"TAG"}: the tag as a string; decoding throws
//     std::invalid_argument on any other string;
//   - a type with a hand-written serialize()/deserialize() and a
//     kMinWireBytes bound (ledger::Transaction): nested.
// A vector's count is untrusted, so decoding reserves at most as many
// elements as the unread input can hold at min_bytes() each; a forged
// count then fails as a truncated read, never as a huge allocation.
// Truncated input throws std::out_of_range; trailing bytes are ignored.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

  /// Write what `fn()` appends as one u32-length-prefixed field, in place.
  template <typename Fn>
  void prefixed(Fn&& fn) {
    const std::size_t at = buf_.size();
    u32(0);
    fn();
    patch_u32(at, static_cast<std::uint32_t>(buf_.size() - at - 4));
  }

  const Bytes& out() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  void patch_u32(std::size_t at, std::uint32_t v);

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
  /// A length-prefixed field as a view into the input (no copy).
  BytesView view();

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

// --- Field list codec --------------------------------------------------------

/// A field written as a u32 length followed by its encoding.
template <typename T>
struct Nested {
  T& value;
};
template <typename T>
Nested<T> nested(T& value) {
  return {value};
}

/// A vector whose elements are each written as nested().
template <typename V>
struct NestedEach {
  V& values;
};
template <typename V>
NestedEach<V> nested_each(V& values) {
  return {values};
}

/// A fixed string that must be read back exactly (a message's type tag).
struct Literal {
  std::string_view text;
};

/// Added to an enum's underlying value to form its wire byte.
template <typename E>
inline constexpr int kEnumOffset = 0;

template <typename T>
void write_field(Writer& w, const T& v);
template <typename T>
void read_field(Reader& r, T& v);
template <typename T>
std::size_t min_bytes(const T& v);

namespace serde_detail {

template <typename T>
inline constexpr bool kVector = false;
template <typename E>
inline constexpr bool kVector<std::vector<E>> = true;

template <typename T>
inline constexpr bool kByteArray = false;
template <std::size_t N>
inline constexpr bool kByteArray<std::array<std::uint8_t, N>> = true;

template <typename T>
inline constexpr bool kNested = false;
template <typename T>
inline constexpr bool kNested<Nested<T>> = true;

template <typename T>
inline constexpr bool kNestedEach = false;
template <typename V>
inline constexpr bool kNestedEach<NestedEach<V>> = true;

// The IO objects a field list is walked with.
struct AnyIO {
  template <typename... F>
  void operator()(F&&...) {}
};
struct FieldWriter {
  Writer& w;
  template <typename... F>
  void operator()(const F&... f) {
    (write_field(w, f), ...);
  }
};
struct FieldReader {
  Reader& r;
  template <typename... F>
  void operator()(F&&... f) {
    (read_field(r, f), ...);
  }
};
struct FieldSize {
  std::size_t total = 0;
  template <typename... F>
  void operator()(const F&... f) {
    total += (min_bytes(f) + ... + 0);
  }
};

/// A type that lists its wire fields.
template <typename T>
concept FieldList = requires(AnyIO& io, T& value) { T::fields(io, value); };

}  // namespace serde_detail

/// The smallest encoding a field of this kind can have. For a vector
/// element it bounds how many elements the unread input can hold.
template <typename T>
std::size_t min_bytes(const T& v) {
  using namespace serde_detail;
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_same_v<T, Literal>) {
    return 4 + v.text.size();
  } else if constexpr (kByteArray<T>) {
    return 4 + v.size();
  } else if constexpr (std::is_same_v<T, Bytes> || kVector<T> ||
                       kNestedEach<T>) {
    return 4;
  } else if constexpr (kNested<T>) {
    return 4 + min_bytes(v.value);
  } else if constexpr (FieldList<T>) {
    FieldSize io;
    T::fields(io, v);
    return io.total;
  } else {
    return T::kMinWireBytes;
  }
}

template <typename T>
void write_field(Writer& w, const T& v) {
  using namespace serde_detail;
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(
        static_cast<std::underlying_type_t<T>>(v) + kEnumOffset<T>));
  } else if constexpr (std::is_same_v<T, Literal>) {
    w.str(v.text);
  } else if constexpr (std::is_same_v<T, Bytes> || kByteArray<T>) {
    w.bytes(v);
  } else if constexpr (kVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write_field(w, e);
  } else if constexpr (kNested<T>) {
    w.prefixed([&] { write_field(w, v.value); });
  } else if constexpr (kNestedEach<T>) {
    w.u32(static_cast<std::uint32_t>(v.values.size()));
    for (const auto& e : v.values) write_field(w, nested(e));
  } else if constexpr (FieldList<T>) {
    FieldWriter io{w};
    T::fields(io, v);
  } else {
    w.bytes(v.serialize());
  }
}

namespace serde_detail {

/// Decode a u32-counted vector, each element through `wrap(element)`.
template <typename E, typename Wrap>
void read_elements(Reader& r, std::vector<E>& out, Wrap wrap) {
  const std::uint32_t count = r.u32();
  E probe{};
  out.clear();
  out.reserve(r.reservable(count, min_bytes(wrap(probe))));
  for (std::uint32_t i = 0; i < count; ++i) {
    auto&& element = wrap(out.emplace_back());
    read_field(r, element);
  }
}

}  // namespace serde_detail

template <typename T>
void read_field(Reader& r, T& v) {
  using namespace serde_detail;
  if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(static_cast<std::underlying_type_t<T>>(r.u8()) -
                       kEnumOffset<T>);
  } else if constexpr (std::is_same_v<T, Literal>) {
    const BytesView got = r.view();
    if (std::string_view(reinterpret_cast<const char*>(got.data()),
                         got.size()) != v.text) {
      throw std::invalid_argument("Reader: expected tag " +
                                  std::string(v.text));
    }
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.bytes();
  } else if constexpr (kByteArray<T>) {
    const BytesView got = r.view();
    if (got.size() != v.size()) {
      throw std::invalid_argument("Reader: fixed-size field of wrong length");
    }
    std::copy(got.begin(), got.end(), v.begin());
  } else if constexpr (kVector<T>) {
    read_elements(r, v, [](auto& e) -> auto& { return e; });
  } else if constexpr (kNested<T>) {
    Reader inner(r.view());
    read_field(inner, v.value);
  } else if constexpr (kNestedEach<T>) {
    read_elements(r, v.values, [](auto& e) { return nested(e); });
  } else if constexpr (FieldList<T>) {
    FieldReader io{r};
    T::fields(io, v);
  } else {
    v = T::deserialize(r.view());
  }
}

/// Encode `v` as a top-level value (a field-list type: its fields inline).
template <typename T>
Bytes encode(const T& v) {
  Writer w;
  write_field(w, v);
  return w.take();
}

/// Decode a top-level T, ignoring trailing bytes.
template <typename T>
T decode(BytesView b) {
  Reader r(b);
  T v{};
  read_field(r, v);
  return v;
}

}  // namespace cyc
