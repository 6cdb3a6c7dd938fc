#include "consensus/types.hpp"

#include <gtest/gtest.h>

#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::consensus {
namespace {

using crypto::KeyPair;

TEST(ConsensusTypes, ProposeRoundTrip) {
  Propose p;
  p.id = {3, 7};
  p.message = bytes_of("payload");
  p.digest = crypto::sha256(p.message);
  const Propose back = Propose::deserialize(p.serialize());
  EXPECT_EQ(back.id, p.id);
  EXPECT_EQ(back.digest, p.digest);
  EXPECT_EQ(back.message, p.message);
}

TEST(ConsensusTypes, SignedPartsDiffer) {
  Propose p;
  p.id = {1, 2};
  p.digest = crypto::sha256(bytes_of("m"));
  Echo e;
  e.id = p.id;
  e.digest = p.digest;
  e.member = 5;
  Confirm c;
  c.id = p.id;
  c.digest = p.digest;
  c.member = 5;
  // The tag prefixes ensure an ECHO signature cannot be replayed as a
  // CONFIRM (and vice versa).
  EXPECT_NE(p.signed_part(), e.signed_part());
  EXPECT_NE(e.signed_part(), c.signed_part());
}

TEST(ConsensusTypes, QuorumCertVerify) {
  const InstanceId id{1, 10};
  const crypto::Digest digest = crypto::sha256(bytes_of("decision"));
  std::vector<KeyPair> committee;
  std::vector<crypto::PublicKey> pks;
  for (std::uint64_t i = 0; i < 5; ++i) {
    committee.push_back(KeyPair::from_seed(100 + i));
    pks.push_back(committee.back().pk);
  }

  QuorumCert cert;
  cert.id = id;
  cert.digest = digest;
  for (int i = 0; i < 3; ++i) {  // 3 of 5 > C/2
    Confirm c;
    c.id = id;
    c.digest = digest;
    c.member = static_cast<std::uint64_t>(i);
    cert.confirms.push_back(
        crypto::make_signed(committee[static_cast<std::size_t>(i)], c.signed_part()));
  }
  EXPECT_TRUE(cert.verify(pks, 5));
}

TEST(ConsensusTypes, QuorumCertTooFewSigners) {
  const InstanceId id{1, 11};
  const crypto::Digest digest = crypto::sha256(bytes_of("d"));
  std::vector<crypto::PublicKey> pks;
  QuorumCert cert;
  cert.id = id;
  cert.digest = digest;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const KeyPair kp = KeyPair::from_seed(200 + i);
    pks.push_back(kp.pk);
    if (i < 2) {  // only 2 of 5
      Confirm c;
      c.id = id;
      c.digest = digest;
      c.member = i;
      cert.confirms.push_back(crypto::make_signed(kp, c.signed_part()));
    }
  }
  EXPECT_FALSE(cert.verify(pks, 5));
}

TEST(ConsensusTypes, QuorumCertDuplicateSignersRejected) {
  const InstanceId id{1, 12};
  const crypto::Digest digest = crypto::sha256(bytes_of("d"));
  const KeyPair kp = KeyPair::from_seed(300);
  Confirm c;
  c.id = id;
  c.digest = digest;
  c.member = 0;
  const auto sm = crypto::make_signed(kp, c.signed_part());
  QuorumCert cert;
  cert.id = id;
  cert.digest = digest;
  cert.confirms = {sm, sm, sm};  // 3 copies of one signature
  EXPECT_FALSE(cert.verify({kp.pk}, 3));
}

TEST(ConsensusTypes, QuorumCertOutsiderRejected) {
  const InstanceId id{1, 13};
  const crypto::Digest digest = crypto::sha256(bytes_of("d"));
  const KeyPair member = KeyPair::from_seed(400);
  const KeyPair outsider = KeyPair::from_seed(401);
  Confirm c;
  c.id = id;
  c.digest = digest;
  c.member = 0;
  QuorumCert cert;
  cert.id = id;
  cert.digest = digest;
  cert.confirms = {crypto::make_signed(outsider, c.signed_part())};
  EXPECT_FALSE(cert.verify({member.pk}, 1));
}

TEST(ConsensusTypes, QuorumCertWrongDigestRejected) {
  const InstanceId id{1, 14};
  const KeyPair kp = KeyPair::from_seed(500);
  Confirm c;
  c.id = id;
  c.digest = crypto::sha256(bytes_of("actual"));
  c.member = 0;
  QuorumCert cert;
  cert.id = id;
  cert.digest = crypto::sha256(bytes_of("claimed"));  // mismatch
  cert.confirms = {crypto::make_signed(kp, c.signed_part())};
  EXPECT_FALSE(cert.verify({kp.pk}, 1));
}

TEST(ConsensusTypes, QuorumCertRoundTrip) {
  const InstanceId id{2, 20};
  const crypto::Digest digest = crypto::sha256(bytes_of("x"));
  const KeyPair kp = KeyPair::from_seed(600);
  Confirm c;
  c.id = id;
  c.digest = digest;
  c.member = 0;
  QuorumCert cert;
  cert.id = id;
  cert.digest = digest;
  cert.confirms = {crypto::make_signed(kp, c.signed_part())};
  const QuorumCert back = QuorumCert::deserialize(cert.serialize());
  EXPECT_EQ(back.id, cert.id);
  EXPECT_EQ(back.digest, cert.digest);
  ASSERT_EQ(back.confirms.size(), 1u);
  EXPECT_TRUE(back.verify({kp.pk}, 1));
}

TEST(EquivocationWitness, ValidPair) {
  const KeyPair leader = KeyPair::from_seed(700);
  Propose a, b;
  a.id = b.id = {1, 5};
  a.message = bytes_of("honest");
  a.digest = crypto::sha256(a.message);
  b.message = bytes_of("evil");
  b.digest = crypto::sha256(b.message);

  EquivocationWitness w;
  w.first = crypto::make_signed(leader, a.signed_part());
  w.second = crypto::make_signed(leader, b.signed_part());
  EXPECT_TRUE(w.valid(leader.pk));
}

TEST(EquivocationWitness, SameDigestInvalid) {
  const KeyPair leader = KeyPair::from_seed(701);
  Propose a;
  a.id = {1, 5};
  a.message = bytes_of("same");
  a.digest = crypto::sha256(a.message);
  EquivocationWitness w;
  w.first = crypto::make_signed(leader, a.signed_part());
  w.second = w.first;
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(EquivocationWitness, DifferentInstanceInvalid) {
  const KeyPair leader = KeyPair::from_seed(702);
  Propose a, b;
  a.id = {1, 5};
  b.id = {1, 6};  // different sn: not equivocation
  a.message = bytes_of("m1");
  a.digest = crypto::sha256(a.message);
  b.message = bytes_of("m2");
  b.digest = crypto::sha256(b.message);
  EquivocationWitness w;
  w.first = crypto::make_signed(leader, a.signed_part());
  w.second = crypto::make_signed(leader, b.signed_part());
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(EquivocationWitness, ForgedSignerInvalid) {
  // Claim 4: a witness not signed by the leader can never frame it.
  const KeyPair leader = KeyPair::from_seed(703);
  const KeyPair framer = KeyPair::from_seed(704);
  Propose a, b;
  a.id = b.id = {1, 5};
  a.message = bytes_of("m1");
  a.digest = crypto::sha256(a.message);
  b.message = bytes_of("m2");
  b.digest = crypto::sha256(b.message);
  EquivocationWitness w;
  w.first = crypto::make_signed(framer, a.signed_part());
  w.second = crypto::make_signed(framer, b.signed_part());
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(EquivocationWitness, GarbagePayloadInvalid) {
  const KeyPair leader = KeyPair::from_seed(705);
  EquivocationWitness w;
  w.first = crypto::make_signed(leader, bytes_of("not a propose"));
  w.second = crypto::make_signed(leader, bytes_of("also not"));
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(EquivocationWitness, RoundTrip) {
  const KeyPair leader = KeyPair::from_seed(706);
  Propose a, b;
  a.id = b.id = {1, 5};
  a.message = bytes_of("m1");
  a.digest = crypto::sha256(a.message);
  b.message = bytes_of("m2");
  b.digest = crypto::sha256(b.message);
  EquivocationWitness w;
  w.first = crypto::make_signed(leader, a.signed_part());
  w.second = crypto::make_signed(leader, b.signed_part());
  const auto back = EquivocationWitness::deserialize(w.serialize());
  EXPECT_TRUE(back.valid(leader.pk));
}

// A forged element count with no elements behind it must fail as a
// truncated read, not as a reserve of ~2^32 signed messages.
TEST(ConsensusTypes, ConfirmForgedCountThrowsOutOfRange) {
  Writer w;
  w.u64(1);
  w.u64(2);
  w.bytes(crypto::digest_to_bytes(crypto::sha256(bytes_of("m"))));
  w.u64(3);
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(Confirm::deserialize(w.out()), std::out_of_range);
}

TEST(ConsensusTypes, QuorumCertForgedCountThrowsOutOfRange) {
  Writer w;
  w.u64(1);
  w.u64(2);
  w.bytes(crypto::digest_to_bytes(crypto::sha256(bytes_of("m"))));
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(QuorumCert::deserialize(w.out()), std::out_of_range);
}

}  // namespace
}  // namespace cyc::consensus
