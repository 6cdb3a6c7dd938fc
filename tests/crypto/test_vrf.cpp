#include "crypto/vrf.hpp"

#include <gtest/gtest.h>

#include <set>

namespace cyc::crypto {
namespace {

TEST(Vrf, ProveVerify) {
  const KeyPair kp = KeyPair::from_seed(1);
  const Bytes input = bytes_of("round-1-randomness");
  const VrfOutput out = vrf_prove(kp.sk, input);
  EXPECT_TRUE(vrf_verify(kp.pk, input, out));
}

TEST(Vrf, Unique) {
  // The VRF output for (sk, input) must be unique and reproducible.
  const KeyPair kp = KeyPair::from_seed(2);
  const Bytes input = bytes_of("input");
  EXPECT_EQ(vrf_prove(kp.sk, input), vrf_prove(kp.sk, input));
}

TEST(Vrf, DifferentInputsDifferentOutputs) {
  const KeyPair kp = KeyPair::from_seed(3);
  std::set<std::string> hashes;
  for (int i = 0; i < 50; ++i) {
    const VrfOutput out = vrf_prove(kp.sk, concat({bytes_of("in"), be64(i)}));
    const Bytes h = digest_to_bytes(out.hash);
    hashes.insert(std::string(h.begin(), h.end()));
  }
  EXPECT_EQ(hashes.size(), 50u);
}

TEST(Vrf, DifferentKeysDifferentOutputs) {
  const Bytes input = bytes_of("shared input");
  std::set<std::string> hashes;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const KeyPair kp = KeyPair::from_seed(seed + 10);
    const Bytes h = digest_to_bytes(vrf_prove(kp.sk, input).hash);
    hashes.insert(std::string(h.begin(), h.end()));
  }
  EXPECT_EQ(hashes.size(), 50u);
}

TEST(Vrf, WrongKeyRejected) {
  const KeyPair a = KeyPair::from_seed(4), b = KeyPair::from_seed(5);
  const Bytes input = bytes_of("input");
  const VrfOutput out = vrf_prove(a.sk, input);
  EXPECT_FALSE(vrf_verify(b.pk, input, out));
}

TEST(Vrf, WrongInputRejected) {
  const KeyPair kp = KeyPair::from_seed(6);
  const VrfOutput out = vrf_prove(kp.sk, bytes_of("A"));
  EXPECT_FALSE(vrf_verify(kp.pk, bytes_of("B"), out));
}

TEST(Vrf, ForgedHashRejected) {
  // An adversary cannot claim an arbitrary hash: the output is bound to
  // the proof.
  const KeyPair kp = KeyPair::from_seed(7);
  const Bytes input = bytes_of("input");
  VrfOutput out = vrf_prove(kp.sk, input);
  out.hash[0] ^= 1;
  EXPECT_FALSE(vrf_verify(kp.pk, input, out));
}

TEST(Vrf, ForgedProofRejected) {
  const KeyPair kp = KeyPair::from_seed(8);
  const Bytes input = bytes_of("input");
  VrfOutput out = vrf_prove(kp.sk, input);
  out.proof.s = (out.proof.s + 1) % kQ;
  EXPECT_FALSE(vrf_verify(kp.pk, input, out));
}

TEST(Vrf, CachedVerdictRejectsTamperedTicket) {
  // The proof's verdict is cached by content, so a second check of the
  // same ticket is a hit, and any altered ticket or input is a new key
  // that is checked and rejected.
  const KeyPair kp = KeyPair::from_seed(11);
  const Bytes input = bytes_of("sortition input");
  const VrfOutput out = vrf_prove(kp.sk, input);
  verify_cache::clear();
  EXPECT_TRUE(vrf_verify(kp.pk, input, out));
  EXPECT_EQ(verify_cache::misses(), 1u);
  EXPECT_TRUE(vrf_verify(kp.pk, input, out));
  EXPECT_EQ(verify_cache::hits(), 1u);
  EXPECT_EQ(verify_cache::misses(), 1u);

  VrfOutput bad_s = out;
  bad_s.proof.s = (bad_s.proof.s + 1) % kQ;
  EXPECT_FALSE(vrf_verify(kp.pk, input, bad_s));
  VrfOutput bad_hash = out;
  bad_hash.hash[31] ^= 1;
  EXPECT_FALSE(vrf_verify(kp.pk, input, bad_hash));
  EXPECT_FALSE(vrf_verify(kp.pk, bytes_of("another input"), out));
}

TEST(Vrf, SerializationRoundTrip) {
  const KeyPair kp = KeyPair::from_seed(9);
  const VrfOutput out = vrf_prove(kp.sk, bytes_of("serialize me"));
  EXPECT_EQ(VrfOutput::deserialize(out.serialize()), out);
}

TEST(Vrf, OutputUniformity) {
  // The top bit of the VRF hash should be ~uniform across inputs.
  const KeyPair kp = KeyPair::from_seed(10);
  int ones = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const VrfOutput out = vrf_prove(kp.sk, be64(i));
    if (out.hash[0] & 0x80) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

}  // namespace
}  // namespace cyc::crypto
