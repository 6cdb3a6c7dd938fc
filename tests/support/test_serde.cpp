#include "support/serde.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

namespace cyc {
namespace {

TEST(Serde, ScalarRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);

  Reader rd(w.out());
  EXPECT_EQ(rd.u8(), 0xab);
  EXPECT_EQ(rd.u32(), 0xdeadbeefu);
  EXPECT_EQ(rd.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(rd.i64(), -42);
  EXPECT_DOUBLE_EQ(rd.f64(), 3.25);
  EXPECT_TRUE(rd.boolean());
  EXPECT_FALSE(rd.boolean());
  EXPECT_TRUE(rd.done());
}

TEST(Serde, BytesAndStrings) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  w.bytes({});
  w.str("");

  Reader rd(w.out());
  EXPECT_EQ(rd.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(rd.str(), "hello");
  EXPECT_TRUE(rd.bytes().empty());
  EXPECT_EQ(rd.str(), "");
  EXPECT_TRUE(rd.done());
}

TEST(Serde, VecHelper) {
  const std::vector<std::uint64_t> values = {5, 6, 7};
  const Bytes wire = encode(values);
  EXPECT_EQ(wire.size(), 4u + 3 * 8);
  EXPECT_EQ(decode<std::vector<std::uint64_t>>(wire), values);
}

TEST(Serde, VecForgedCountThrowsWithoutHugeReserve) {
  Writer w;
  w.u32(0xFFFFFFFFu);  // forged count, no elements follow
  EXPECT_THROW(decode<std::vector<std::uint64_t>>(w.out()),
               std::out_of_range);
}

TEST(Serde, ReservableIsCappedByUnreadInput) {
  Writer w;
  w.u32(0xFFFFFFFFu);
  w.u64(1);
  w.u64(2);
  Reader rd(w.out());
  const std::uint32_t count = rd.u32();
  EXPECT_EQ(rd.reservable(count, 8), 2u);
  EXPECT_EQ(rd.reservable(count, 1), 16u);
  EXPECT_EQ(rd.reservable(1, 8), 1u);
}

TEST(Serde, TruncatedInputThrows) {
  Writer w;
  w.u64(1);
  Bytes data = w.take();
  data.pop_back();
  Reader rd(data);
  EXPECT_THROW(rd.u64(), std::out_of_range);
}

TEST(Serde, TruncatedBytesLengthThrows) {
  Writer w;
  w.bytes(Bytes(10, 0));
  Bytes data = w.take();
  data.resize(8);  // cut into the byte body
  Reader rd(data);
  EXPECT_THROW(rd.bytes(), std::out_of_range);
}

TEST(Serde, CanonicalEncoding) {
  // Equal values must produce identical bytes (hashing depends on this).
  Writer a, b;
  a.u64(7);
  a.str("x");
  b.u64(7);
  b.str("x");
  EXPECT_EQ(a.out(), b.out());
}

TEST(Serde, Remaining) {
  Writer w;
  w.u32(1);
  w.u32(2);
  Reader rd(w.out());
  EXPECT_EQ(rd.remaining(), 8u);
  rd.u32();
  EXPECT_EQ(rd.remaining(), 4u);
}

TEST(Serde, NegativeAndSpecialDoubles) {
  Writer w;
  w.f64(-0.0);
  w.f64(1e308);
  w.f64(-1e-308);
  Reader rd(w.out());
  EXPECT_DOUBLE_EQ(rd.f64(), -0.0);
  EXPECT_DOUBLE_EQ(rd.f64(), 1e308);
  EXPECT_DOUBLE_EQ(rd.f64(), -1e-308);
}

enum class Color : std::uint8_t { kRed = 0, kBlue = 2 };

struct Inner {
  std::uint32_t a = 0;
  Bytes b;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.a, s.b); }
};

struct Sample {
  bool flag = false;
  std::uint64_t delta = 0;
  double ratio = 0;
  Color color = Color::kRed;
  std::array<std::uint8_t, 2> pair{};
  Inner flat;
  Inner boxed;
  std::vector<Inner> boxes;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(Literal{"SAMPLE"}, s.flag, s.delta, s.ratio, s.color, s.pair, s.flat,
       nested(s.boxed), nested_each(s.boxes));
  }
};

Sample sample() {
  Sample s;
  s.flag = true;
  s.delta = 0x0102030405060708ull;
  s.ratio = 0.5;
  s.color = Color::kBlue;
  s.pair = {7, 8};
  s.flat = {1, Bytes{9}};
  s.boxed = {2, {}};
  s.boxes = {{3, Bytes{4, 5}}};
  return s;
}

// The same bytes written field by field with the Writer primitives.
Bytes sample_by_hand() {
  Writer w;
  w.str("SAMPLE");
  w.boolean(true);
  w.u64(0x0102030405060708ull);
  w.f64(0.5);
  w.u8(2);
  w.bytes(Bytes{7, 8});
  w.u32(1);
  w.bytes(Bytes{9});
  Writer boxed;
  boxed.u32(2);
  boxed.bytes({});
  w.bytes(boxed.out());
  w.u32(1);
  Writer box;
  box.u32(3);
  box.bytes(Bytes{4, 5});
  w.bytes(box.out());
  return w.take();
}

TEST(Serde, FieldListMatchesHandWrittenLayout) {
  const Bytes wire = sample_by_hand();
  EXPECT_EQ(encode(sample()), wire);
  EXPECT_EQ(encode(decode<Sample>(wire)), wire);
}

TEST(Serde, FieldListIgnoresTrailingBytes) {
  Bytes wire = sample_by_hand();
  wire.push_back(0xee);
  EXPECT_EQ(encode(decode<Sample>(wire)), sample_by_hand());
}

TEST(Serde, FieldListRejectsWrongTagAndArrayLength) {
  Bytes wrong_tag = sample_by_hand();
  wrong_tag[4] = 'X';
  EXPECT_THROW(decode<Sample>(wrong_tag), std::invalid_argument);
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  EXPECT_THROW((decode<std::array<std::uint8_t, 2>>(w.out())),
               std::invalid_argument);
}

TEST(Serde, FieldListMinimumsSumTheFields) {
  // Tag 4 + 6, bool 1, u64 8, f64 8, enum 1, array 4 + 2, flat Inner
  // 4 + 4, nested Inner 4 + 8, nested_each count 4.
  EXPECT_EQ(min_bytes(Sample{}), 10u + 1 + 8 + 8 + 1 + 6 + 8 + 12 + 4);
}

}  // namespace
}  // namespace cyc
