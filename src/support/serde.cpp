#include "support/serde.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace cyc {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u32(std::uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::bytes(BytesView v) {
  u32(static_cast<std::uint32_t>(v.size()));
  append(buf_, v);
}

void Writer::str(std::string_view v) {
  bytes(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
}

void Writer::patch_u32(std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * (3 - i))) & 0xff);
  }
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw std::out_of_range("Reader: truncated input");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_++];
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_++];
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::boolean() { return u8() != 0; }

BytesView Reader::view() {
  const std::uint32_t len = u32();
  need(len);
  const BytesView out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

Bytes Reader::bytes() {
  const BytesView v = view();
  return Bytes(v.begin(), v.end());
}

std::string Reader::str() {
  const BytesView v = view();
  return std::string(v.begin(), v.end());
}

}  // namespace cyc
