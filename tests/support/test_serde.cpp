#include "support/serde.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
  Writer w;
  std::vector<std::uint64_t> values = {5, 6, 7};
  w.vec(values, [](Writer& w2, std::uint64_t v) { w2.u64(v); });

  Reader rd(w.out());
  const auto out =
      rd.vec<std::uint64_t>(8, [](Reader& r) { return r.u64(); });
  EXPECT_EQ(out, values);
}

TEST(Serde, VecForgedCountThrowsWithoutHugeReserve) {
  Writer w;
  w.u32(0xFFFFFFFFu);  // forged count, no elements follow
  Reader rd(w.out());
  EXPECT_THROW(rd.vec<std::uint64_t>(8, [](Reader& r) { return r.u64(); }),
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


}  // namespace
}  // namespace cyc
