#include "crypto/schnorr.hpp"

#include <gtest/gtest.h>

namespace cyc::crypto {
namespace {

KeyPair keys(std::uint64_t seed) { return KeyPair::from_seed(seed); }

TEST(Schnorr, SignVerify) {
  const KeyPair kp = keys(1);
  const Bytes msg = bytes_of("hello world");
  const Signature sig = sign(kp.sk, msg);
  EXPECT_TRUE(verify(kp.pk, msg, sig));
}

TEST(Schnorr, WrongMessageFails) {
  const KeyPair kp = keys(2);
  const Signature sig = sign(kp.sk, bytes_of("message A"));
  EXPECT_FALSE(verify(kp.pk, bytes_of("message B"), sig));
}

TEST(Schnorr, WrongKeyFails) {
  const KeyPair a = keys(3), b = keys(4);
  const Bytes msg = bytes_of("msg");
  const Signature sig = sign(a.sk, msg);
  EXPECT_FALSE(verify(b.pk, msg, sig));
}

TEST(Schnorr, TamperedSignatureFails) {
  const KeyPair kp = keys(5);
  const Bytes msg = bytes_of("msg");
  Signature sig = sign(kp.sk, msg);
  sig.s = (sig.s + 1) % kQ;
  EXPECT_FALSE(verify(kp.pk, msg, sig));
  sig = sign(kp.sk, msg);
  sig.r = gmul(sig.r, kG);
  EXPECT_FALSE(verify(kp.pk, msg, sig));
}

TEST(Schnorr, MalformedComponentsRejected) {
  const KeyPair kp = keys(6);
  const Bytes msg = bytes_of("msg");
  Signature sig = sign(kp.sk, msg);
  Signature bad = sig;
  bad.r = 0;  // not a group member
  EXPECT_FALSE(verify(kp.pk, msg, bad));
  bad = sig;
  bad.s = kQ;  // out-of-range scalar
  EXPECT_FALSE(verify(kp.pk, msg, bad));
  PublicKey bad_pk{0};
  EXPECT_FALSE(verify(bad_pk, msg, sig));
}

TEST(Schnorr, Deterministic) {
  const KeyPair kp = keys(7);
  const Bytes msg = bytes_of("same message");
  EXPECT_EQ(sign(kp.sk, msg), sign(kp.sk, msg));
}

TEST(Schnorr, MakeSignedMatchesSign) {
  for (std::uint64_t seed = 20; seed < 60; ++seed) {
    const KeyPair kp = keys(seed);
    const Bytes msg = be64(seed * 7919);
    const SignedMessage sm = make_signed(kp, msg);
    EXPECT_EQ(sm.sig, sign(kp.sk, msg));
    EXPECT_TRUE(verify(kp.pk, msg, sm.sig));
  }
}

TEST(Schnorr, DistinctMessagesDistinctNonces) {
  const KeyPair kp = keys(8);
  const Signature s1 = sign(kp.sk, bytes_of("m1"));
  const Signature s2 = sign(kp.sk, bytes_of("m2"));
  EXPECT_NE(s1.r, s2.r);  // deterministic nonce depends on message
}

TEST(Schnorr, EmptyMessage) {
  const KeyPair kp = keys(9);
  const Signature sig = sign(kp.sk, {});
  EXPECT_TRUE(verify(kp.pk, {}, sig));
}

TEST(Schnorr, KeyGeneration) {
  rng::Stream rng(10);
  const KeyPair kp = KeyPair::generate(rng);
  EXPECT_GT(kp.sk.x, 0u);
  EXPECT_LT(kp.sk.x, kQ);
  EXPECT_EQ(kp.pk.y, g_pow(kp.sk.x));
  EXPECT_TRUE(in_group(kp.pk.y));
}

TEST(Schnorr, FromSeedDeterministic) {
  EXPECT_EQ(keys(42).pk, keys(42).pk);
  EXPECT_NE(keys(42).pk, keys(43).pk);
}

TEST(Schnorr, SerializationRoundTrip) {
  const KeyPair kp = keys(11);
  const Signature sig = sign(kp.sk, bytes_of("x"));
  EXPECT_EQ(Signature::deserialize(sig.serialize()), sig);
  EXPECT_EQ(PublicKey::deserialize(kp.pk.serialize()), kp.pk);
}

TEST(SignedMessage, RoundTripAndValidity) {
  const KeyPair kp = keys(12);
  const SignedMessage sm = make_signed(kp, bytes_of("payload"));
  EXPECT_TRUE(sm.valid());
  const SignedMessage back = SignedMessage::deserialize(sm.serialize());
  EXPECT_EQ(back, sm);
  EXPECT_TRUE(back.valid());
}

TEST(SignedMessage, TamperedPayloadInvalid) {
  const KeyPair kp = keys(13);
  SignedMessage sm = make_signed(kp, bytes_of("payload"));
  sm.payload.push_back(0);
  EXPECT_FALSE(sm.valid());
}

TEST(SignedMessage, SwappedSignerInvalid) {
  const KeyPair a = keys(14), b = keys(15);
  SignedMessage sm = make_signed(a, bytes_of("payload"));
  sm.signer = b.pk;
  EXPECT_FALSE(sm.valid());
}

// Property sweep across many keys and messages.
class SchnorrSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrSweep, RoundTrip) {
  const KeyPair kp = keys(GetParam());
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Bytes msg = concat({bytes_of("msg"), be64(i * GetParam())});
    const Signature sig = sign(kp.sk, msg);
    EXPECT_TRUE(verify(kp.pk, msg, sig));
    Bytes wrong = msg;
    wrong[0] ^= 1;
    EXPECT_FALSE(verify(kp.pk, wrong, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(ManyKeys, SchnorrSweep,
                         ::testing::Values(100, 200, 300, 400, 500, 600, 700,
                                           800));

}  // namespace
}  // namespace cyc::crypto
