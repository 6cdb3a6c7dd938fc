#include "protocol/semicommit.hpp"

#include <gtest/gtest.h>

#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::protocol {
namespace {

std::vector<crypto::PublicKey> members(std::size_t count,
                                       std::uint64_t base = 100) {
  std::vector<crypto::PublicKey> pks;
  for (std::size_t i = 0; i < count; ++i) {
    pks.push_back(crypto::KeyPair::from_seed(base + i).pk);
  }
  return pks;
}

TEST(SemiCommit, CommitAndVerify) {
  const auto list = members(10);
  const auto commitment = semi_commitment(list);
  EXPECT_TRUE(verify_semi_commitment(commitment, list));
}

TEST(SemiCommit, OrderIndependent) {
  auto list = members(10);
  const auto commitment = semi_commitment(list);
  std::reverse(list.begin(), list.end());
  EXPECT_EQ(semi_commitment(list), commitment);
  EXPECT_TRUE(verify_semi_commitment(commitment, list));
}

TEST(SemiCommit, BindingOnMembership) {
  // Lemma 1: a different list cannot match the commitment.
  const auto list = members(10);
  const auto commitment = semi_commitment(list);

  auto dropped = list;
  dropped.pop_back();
  EXPECT_FALSE(verify_semi_commitment(commitment, dropped));

  auto added = list;
  added.push_back(crypto::KeyPair::from_seed(999).pk);
  EXPECT_FALSE(verify_semi_commitment(commitment, added));

  auto swapped = list;
  swapped[0] = crypto::KeyPair::from_seed(998).pk;
  EXPECT_FALSE(verify_semi_commitment(commitment, swapped));
}

TEST(SemiCommit, EmptyListDefined) {
  const auto commitment = semi_commitment({});
  EXPECT_TRUE(verify_semi_commitment(commitment, {}));
  EXPECT_FALSE(verify_semi_commitment(commitment, members(1)));
}

TEST(SemiCommit, PayloadRoundTrips) {
  const auto list = members(6);
  const Bytes lp = member_list_payload(3, 2, list);
  auto parsed = parse_member_list_payload(lp);
  std::sort(parsed.begin(), parsed.end());
  auto sorted = list;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(parsed, sorted);

  const auto commitment = semi_commitment(list);
  const Bytes cp = commitment_payload(3, 2, commitment);
  EXPECT_EQ(parse_commitment_payload(cp), commitment);
}

TEST(SemiCommit, PayloadBadTagThrows) {
  EXPECT_THROW(parse_member_list_payload(bytes_of("junk")), std::exception);
  EXPECT_THROW(parse_commitment_payload(bytes_of("junk")), std::exception);
}

TEST(MismatchWitness, DetectsForgedCommitment) {
  // Theorem 2 scenario: leader commits to S' but distributes S.
  const auto leader = crypto::KeyPair::from_seed(1);
  const auto list = members(8);
  auto forged = list;
  forged.pop_back();

  CommitmentMismatchWitness w;
  w.list_msg = crypto::make_signed(leader, member_list_payload(1, 0, list));
  w.commitment_msg = crypto::make_signed(
      leader, commitment_payload(1, 0, semi_commitment(forged)));
  EXPECT_TRUE(w.valid(leader.pk));
}

TEST(MismatchWitness, HonestPairIsNotAWitness) {
  const auto leader = crypto::KeyPair::from_seed(2);
  const auto list = members(8);
  CommitmentMismatchWitness w;
  w.list_msg = crypto::make_signed(leader, member_list_payload(1, 0, list));
  w.commitment_msg = crypto::make_signed(
      leader, commitment_payload(1, 0, semi_commitment(list)));
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(MismatchWitness, FramingFails) {
  // Claim 4: messages signed by anyone but the leader are no witness.
  const auto leader = crypto::KeyPair::from_seed(3);
  const auto framer = crypto::KeyPair::from_seed(4);
  const auto list = members(8);
  auto forged = list;
  forged.pop_back();

  CommitmentMismatchWitness w;
  w.list_msg = crypto::make_signed(framer, member_list_payload(1, 0, list));
  w.commitment_msg = crypto::make_signed(
      framer, commitment_payload(1, 0, semi_commitment(forged)));
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(MismatchWitness, TamperedSignatureInvalid) {
  const auto leader = crypto::KeyPair::from_seed(5);
  const auto list = members(8);
  auto forged = list;
  forged.pop_back();
  CommitmentMismatchWitness w;
  w.list_msg = crypto::make_signed(leader, member_list_payload(1, 0, list));
  w.commitment_msg = crypto::make_signed(
      leader, commitment_payload(1, 0, semi_commitment(forged)));
  w.list_msg.payload.push_back(0);  // break the signature
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(MismatchWitness, GarbagePayloadsInvalid) {
  const auto leader = crypto::KeyPair::from_seed(6);
  CommitmentMismatchWitness w;
  w.list_msg = crypto::make_signed(leader, bytes_of("garbage"));
  w.commitment_msg = crypto::make_signed(leader, bytes_of("garbage2"));
  EXPECT_FALSE(w.valid(leader.pk));
}

TEST(MismatchWitness, SerializationRoundTrip) {
  const auto leader = crypto::KeyPair::from_seed(7);
  const auto list = members(4);
  auto forged = list;
  forged.pop_back();
  CommitmentMismatchWitness w;
  w.list_msg = crypto::make_signed(leader, member_list_payload(1, 0, list));
  w.commitment_msg = crypto::make_signed(
      leader, commitment_payload(1, 0, semi_commitment(forged)));
  const auto back = CommitmentMismatchWitness::deserialize(w.serialize());
  EXPECT_TRUE(back.valid(leader.pk));
}

// A forged member count must fail as a truncated read, not a huge
// reserve.
TEST(SemiCommit, MemberListForgedCountThrowsOutOfRange) {
  Writer inner;
  inner.str("cyc.memberlist");
  inner.u32(0xFFFFFFFFu);
  Writer w;
  w.str("MEMBER_LIST");
  w.u64(1);
  w.u32(0);
  w.bytes(inner.out());
  EXPECT_THROW(parse_member_list_payload(w.out()), std::out_of_range);
}

}  // namespace
}  // namespace cyc::protocol
