#include "protocol/semicommit.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "protocol/engine.hpp"
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

// ---------------------------------------------------------------------------
// The referees' relay (Alg. 4): one batch of digests per (referee, key
// member) at the flush, single relays after it.
// ---------------------------------------------------------------------------

Params relay_params(std::uint64_t seed) {
  Params p;
  p.m = 8;
  p.c = 8;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.3;
  p.invalid_fraction = 0.0;
  p.seed = seed;
  return p;
}

std::vector<net::NodeId> all_key_members(const RoundAssignment& assign) {
  std::vector<net::NodeId> ids;
  for (const CommitteeInfo& committee : assign.committees) {
    for (net::NodeId km : committee.key_members()) ids.push_back(km);
  }
  return ids;
}

/// kSemiCommitAck traffic of the last round in `phase`.
net::Counter relay_traffic(const Engine& engine, net::Phase phase) {
  return engine.net().stats().at(phase, net::Tag::kSemiCommitAck);
}

/// Every key member of the last round holds committee k's digest, equal
/// to the one every referee accepted.
void expect_key_members_hold_every_digest(const Engine& engine) {
  const RoundAssignment& assign = engine.last_assignment();
  for (std::uint32_t k = 0; k < engine.params().m; ++k) {
    const crypto::Digest* accepted =
        engine.semicommitment(assign.referees.front(), k);
    ASSERT_NE(accepted, nullptr) << "committee " << k;
    for (net::NodeId rm : assign.referees) {
      const crypto::Digest* other = engine.semicommitment(rm, k);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(*other, *accepted) << "referee " << rm << ", committee " << k;
    }
    for (net::NodeId km : all_key_members(assign)) {
      const crypto::Digest* held = engine.semicommitment(km, k);
      ASSERT_NE(held, nullptr) << "key member " << km << ", committee " << k;
      EXPECT_EQ(*held, *accepted) << "key member " << km << ", committee " << k;
    }
  }
}

TEST(SemiCommitRelay, EachKeyMemberGetsOneBatchPerReferee) {
  Engine engine(relay_params(1), AdversaryConfig{});
  for (int r = 0; r < 2; ++r) {
    const RoundReport report = engine.run_round();
    ASSERT_GT(report.txs_committed, 0u);
    const std::uint64_t key_members =
        all_key_members(engine.last_assignment()).size();
    const std::uint64_t referees = engine.params().referee_size;
    // Every batch lands inside the semi-commitment phase, and nothing is
    // relayed later in an honest round.
    std::uint64_t delivered = 0;
    for (std::size_t p = 0; p < static_cast<std::size_t>(net::Phase::kCount);
         ++p) {
      delivered += relay_traffic(engine, static_cast<net::Phase>(p)).msgs_recv;
    }
    EXPECT_EQ(relay_traffic(engine, net::Phase::kSemiCommit).msgs_recv,
              referees * key_members);
    EXPECT_EQ(delivered, referees * key_members);
    expect_key_members_hold_every_digest(engine);
  }
}

TEST(SemiCommitRelay, CrashedRefereeStillLeavesEveryDigest) {
  // Genesis corruption takes effect in round 1. Pick the first seed whose
  // draw crashes exactly one round-1 referee and no leader, so every
  // committee commits on time.
  AdversaryConfig adv;
  adv.corrupt_fraction = 0.05;
  adv.mix = {{Behavior::kCrash, 1.0}};
  std::optional<Engine> engine;
  for (std::uint64_t seed = 1; seed <= 64 && !engine; ++seed) {
    engine.emplace(relay_params(seed), adv);
    const RoundAssignment& assign = engine->assignment();
    std::size_t crashed_referees = 0;
    for (net::NodeId rm : assign.referees) {
      crashed_referees += !engine->active(rm, 1);
    }
    bool leader_crashed = false;
    for (const CommitteeInfo& committee : assign.committees) {
      leader_crashed |= !engine->active(committee.leader, 1);
    }
    if (crashed_referees != 1 || leader_crashed) engine.reset();
  }
  ASSERT_TRUE(engine.has_value());
  const RoundReport report = engine->run_round();
  ASSERT_GT(report.txs_committed, 0u);
  ASSERT_EQ(report.recoveries, 0u);
  const RoundAssignment& assign = engine->last_assignment();
  net::NodeId live_referee = net::kNoNode;
  for (net::NodeId rm : assign.referees) {
    if (engine->active(rm, 1)) live_referee = rm;
  }
  for (std::uint32_t k = 0; k < engine->params().m; ++k) {
    const crypto::Digest* accepted = engine->semicommitment(live_referee, k);
    ASSERT_NE(accepted, nullptr);
    for (net::NodeId km : all_key_members(assign)) {
      if (!engine->active(km, 1)) continue;
      const crypto::Digest* held = engine->semicommitment(km, k);
      ASSERT_NE(held, nullptr) << "key member " << km << ", committee " << k;
      EXPECT_EQ(*held, *accepted);
    }
  }
  // The crashed referee flushes nothing; the others reach every seat.
  EXPECT_EQ(relay_traffic(*engine, net::Phase::kSemiCommit).msgs_sent,
            (engine->params().referee_size - 1) *
                all_key_members(assign).size());
}

TEST(SemiCommitRelay, ReplacementLeadersCommitmentIsRelayedOnceAndUsed) {
  // Committee 0's leader is crashed from round 1: it never sends SEMI_COM,
  // so the flush batches carry no digest for committee 0. Its replacement
  // (installed after the flush) publishes a fresh
  // commitment that each referee relays on its own — and without that
  // relay no destination leader could accept committee 0's cross lists.
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 1.0 / 8.0;
  adv.mix = {{Behavior::kCrash, 1.0}};
  Engine engine(relay_params(3), adv);
  const RoundReport report = engine.run_round();
  ASSERT_EQ(report.recoveries, 1u);
  ASSERT_EQ(report.recovery_events.front().committee, 0u);

  const std::uint64_t key_members =
      all_key_members(engine.last_assignment()).size();
  const std::uint64_t referees = engine.params().referee_size;
  std::uint64_t late = 0;
  for (std::size_t p = 0; p < static_cast<std::size_t>(net::Phase::kCount);
       ++p) {
    if (static_cast<net::Phase>(p) == net::Phase::kSemiCommit) continue;
    late += relay_traffic(engine, static_cast<net::Phase>(p)).msgs_sent;
  }
  EXPECT_EQ(late, referees * key_members);

  const net::NodeId new_leader = report.recovery_events.front().new_leader;
  const crypto::Digest* fresh = engine.semicommitment(new_leader, 0);
  const crypto::Digest* accepted =
      engine.semicommitment(engine.last_assignment().referees.front(), 0);
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(*fresh, *accepted);
  // leader_handle_cross_in accepted committee 0's cross lists against the
  // relayed digest, so some of them reached the block.
  EXPECT_GT(report.committees[0].cross_committed, 0u);
}

}  // namespace
}  // namespace cyc::protocol
