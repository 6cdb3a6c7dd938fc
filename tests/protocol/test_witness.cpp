#include "protocol/witness.hpp"

#include <gtest/gtest.h>

#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::protocol {
namespace {

Accusation make_accusation(const crypto::KeyPair& accused,
                           const crypto::KeyPair& accuser) {
  Accusation a;
  a.round = 2;
  a.committee = 1;
  a.accused = accused.pk;
  a.accuser = accuser.pk;
  a.kind = WitnessKind::kTimeout;
  return a;
}

consensus::EquivocationWitness equivocation(const crypto::KeyPair& leader) {
  consensus::Propose p1, p2;
  p1.id = p2.id = {2, 100};
  p1.message = bytes_of("a");
  p1.digest = crypto::sha256(p1.message);
  p2.message = bytes_of("b");
  p2.digest = crypto::sha256(p2.message);
  consensus::EquivocationWitness w;
  w.first = crypto::make_signed(leader, p1.signed_part());
  w.second = crypto::make_signed(leader, p2.signed_part());
  return w;
}

TEST(Accusation, RoundTrip) {
  const auto accused = crypto::KeyPair::from_seed(1);
  const auto accuser = crypto::KeyPair::from_seed(2);
  Accusation a = make_accusation(accused, accuser);
  a.witness = bytes_of("some evidence");
  const auto back = Accusation::deserialize(a.serialize());
  EXPECT_EQ(back.round, a.round);
  EXPECT_EQ(back.committee, a.committee);
  EXPECT_EQ(back.accused, a.accused);
  EXPECT_EQ(back.accuser, a.accuser);
  EXPECT_EQ(back.kind, a.kind);
  EXPECT_EQ(back.witness, a.witness);
}

TEST(Accusation, EquivocationWitnessValid) {
  const auto leader = crypto::KeyPair::from_seed(3);
  const auto accuser = crypto::KeyPair::from_seed(4);
  Accusation a = make_accusation(leader, accuser);
  a.kind = WitnessKind::kEquivocation;
  a.witness = equivocation(leader).serialize();
  EXPECT_TRUE(a.witness_valid());
}

TEST(Accusation, EquivocationAgainstWrongLeaderInvalid) {
  const auto leader = crypto::KeyPair::from_seed(5);
  const auto other = crypto::KeyPair::from_seed(6);
  const auto accuser = crypto::KeyPair::from_seed(7);
  Accusation a = make_accusation(other, accuser);  // accuses 'other'
  a.kind = WitnessKind::kEquivocation;
  a.witness = equivocation(leader).serialize();  // but witness is vs leader
  EXPECT_FALSE(a.witness_valid());
}

TEST(Accusation, TimeoutNeverSelfValidates) {
  // Claim 4 safeguard: silence has no signature, so the referee must
  // corroborate it — witness_valid() alone is false.
  const auto accused = crypto::KeyPair::from_seed(8);
  const auto accuser = crypto::KeyPair::from_seed(9);
  Accusation a = make_accusation(accused, accuser);
  EXPECT_FALSE(a.witness_valid());
}

TEST(Accusation, GarbageWitnessInvalid) {
  const auto accused = crypto::KeyPair::from_seed(10);
  const auto accuser = crypto::KeyPair::from_seed(11);
  Accusation a = make_accusation(accused, accuser);
  a.kind = WitnessKind::kEquivocation;
  a.witness = bytes_of("garbage");
  EXPECT_FALSE(a.witness_valid());
}

TEST(Impeachment, CertVerifies) {
  const auto accused = crypto::KeyPair::from_seed(12);
  const auto accuser = crypto::KeyPair::from_seed(13);
  Accusation a = make_accusation(accused, accuser);

  std::vector<crypto::KeyPair> committee;
  std::vector<crypto::PublicKey> pks;
  for (std::uint64_t i = 0; i < 5; ++i) {
    committee.push_back(crypto::KeyPair::from_seed(100 + i));
    pks.push_back(committee.back().pk);
  }
  ImpeachmentCert cert;
  cert.accusation = a;
  const Bytes payload = ImpeachmentCert::approval_payload(a);
  for (int i = 0; i < 3; ++i) {
    cert.approvals.push_back(
        crypto::make_signed(committee[static_cast<std::size_t>(i)], payload));
  }
  EXPECT_TRUE(cert.verify(pks, 5));
}

TEST(Impeachment, MinorityInsufficient) {
  const auto accused = crypto::KeyPair::from_seed(14);
  const auto accuser = crypto::KeyPair::from_seed(15);
  Accusation a = make_accusation(accused, accuser);
  std::vector<crypto::PublicKey> pks;
  ImpeachmentCert cert;
  cert.accusation = a;
  const Bytes payload = ImpeachmentCert::approval_payload(a);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto kp = crypto::KeyPair::from_seed(200 + i);
    pks.push_back(kp.pk);
    if (i < 2) cert.approvals.push_back(crypto::make_signed(kp, payload));
  }
  EXPECT_FALSE(cert.verify(pks, 5));  // 2 of 5
}

TEST(Impeachment, DuplicateApprovalsRejected) {
  const auto accused = crypto::KeyPair::from_seed(16);
  const auto accuser = crypto::KeyPair::from_seed(17);
  Accusation a = make_accusation(accused, accuser);
  const auto kp = crypto::KeyPair::from_seed(300);
  const Bytes payload = ImpeachmentCert::approval_payload(a);
  ImpeachmentCert cert;
  cert.accusation = a;
  const auto sm = crypto::make_signed(kp, payload);
  cert.approvals = {sm, sm, sm};
  EXPECT_FALSE(cert.verify({kp.pk}, 3));
}

TEST(Impeachment, ApprovalForDifferentAccusationRejected) {
  const auto accused = crypto::KeyPair::from_seed(18);
  const auto accuser = crypto::KeyPair::from_seed(19);
  Accusation a = make_accusation(accused, accuser);
  Accusation b = make_accusation(accused, accuser);
  b.round = 3;  // different accusation
  const auto kp = crypto::KeyPair::from_seed(301);
  ImpeachmentCert cert;
  cert.accusation = a;
  cert.approvals = {
      crypto::make_signed(kp, ImpeachmentCert::approval_payload(b))};
  EXPECT_FALSE(cert.verify({kp.pk}, 1));
}

TEST(Impeachment, OutsiderApprovalRejected) {
  const auto accused = crypto::KeyPair::from_seed(20);
  const auto accuser = crypto::KeyPair::from_seed(21);
  Accusation a = make_accusation(accused, accuser);
  const auto member = crypto::KeyPair::from_seed(302);
  const auto outsider = crypto::KeyPair::from_seed(303);
  ImpeachmentCert cert;
  cert.accusation = a;
  cert.approvals = {crypto::make_signed(
      outsider, ImpeachmentCert::approval_payload(a))};
  EXPECT_FALSE(cert.verify({member.pk}, 1));
}

TEST(Impeachment, RoundTrip) {
  const auto accused = crypto::KeyPair::from_seed(22);
  const auto accuser = crypto::KeyPair::from_seed(23);
  Accusation a = make_accusation(accused, accuser);
  const auto kp = crypto::KeyPair::from_seed(304);
  ImpeachmentCert cert;
  cert.accusation = a;
  cert.approvals = {
      crypto::make_signed(kp, ImpeachmentCert::approval_payload(a))};
  const auto back = ImpeachmentCert::deserialize(cert.serialize());
  EXPECT_TRUE(back.verify({kp.pk}, 1));
}

TEST(WitnessKinds, Names) {
  EXPECT_EQ(witness_kind_name(WitnessKind::kEquivocation), "equivocation");
  EXPECT_EQ(witness_kind_name(WitnessKind::kCommitMismatch),
            "commit-mismatch");
  EXPECT_EQ(witness_kind_name(WitnessKind::kTimeout), "timeout");
}

// A forged approval count must fail as a truncated read, not a huge
// reserve.
TEST(Witness, ImpeachmentCertForgedCountThrowsOutOfRange) {
  Writer w;
  w.bytes(Accusation{}.serialize());
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(ImpeachmentCert::deserialize(w.out()), std::out_of_range);
}

}  // namespace
}  // namespace cyc::protocol
