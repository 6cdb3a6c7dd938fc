// Decode once, inside the buffer: each multicast PROPOSE / ECHO / TX_LIST
// buffer is decoded once however many members receive it, a malformed
// buffer stores nothing and is dropped by every receiver, and a buffer's
// decoding is freed with the buffer. The referees' semi-commitment
// batches ride the same receive path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocol/engine.hpp"
#include "protocol/payloads.hpp"
#include "protocol/sn_layout.hpp"

namespace cyc::protocol {
namespace {

Params params_for(std::uint64_t seed) {
  Params p;
  p.m = 8;
  p.c = 8;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.25;
  p.invalid_fraction = 0.0;
  p.seed = seed;
  return p;
}

/// Messages tagged `tag` delivered this round, read from the SimNet's
/// (phase, tag) traffic table (reset at round start).
std::uint64_t deliveries(const Engine& engine, net::Tag tag) {
  std::uint64_t delivered = 0;
  for (std::size_t p = 0; p < static_cast<std::size_t>(net::Phase::kCount);
       ++p) {
    delivered +=
        engine.net().stats().at(static_cast<net::Phase>(p), tag).msgs_recv;
  }
  return delivered;
}

/// Messages sent since the last stats reset, over every phase and tag.
std::uint64_t sends(const Engine& engine) {
  return engine.net().stats().grand_total().msgs_sent;
}

std::vector<net::NodeId> members_of(const CommitteeInfo& committee) {
  std::vector<net::NodeId> ids = committee.key_members();
  ids.insert(ids.end(), committee.commons.begin(), committee.commons.end());
  return ids;
}

TEST(FanoutCache, HonestRoundDecodesEachConsensusBufferOnce) {
  Engine engine(params_for(1), AdversaryConfig{});
  for (int r = 0; r < 2; ++r) {
    const std::uint64_t proposes0 = net::payload_decodes(net::Tag::kPropose);
    const std::uint64_t echoes0 = net::payload_decodes(net::Tag::kEcho);
    const RoundReport report = engine.run_round();
    ASSERT_GT(report.txs_committed, 0u);

    // Each buffer is decoded by its first receiver only, so a multicast
    // fills one slot for all of its deliveries.
    const std::uint64_t proposes =
        net::payload_decodes(net::Tag::kPropose) - proposes0;
    const std::uint64_t echoes = net::payload_decodes(net::Tag::kEcho) - echoes0;
    EXPECT_GT(proposes, 0u) << "round " << report.round;
    EXPECT_LT(proposes, deliveries(engine, net::Tag::kPropose))
        << "round " << report.round;
    EXPECT_GT(echoes, 0u) << "round " << report.round;
    EXPECT_LT(echoes, deliveries(engine, net::Tag::kEcho))
        << "round " << report.round;
  }
}

TEST(FanoutCache, TxListBufferIsDecodedOnce) {
  Engine engine(params_for(4), AdversaryConfig{});
  const std::uint32_t m = engine.params().m;
  const std::uint64_t fills0 = net::payload_decodes(net::Tag::kTxList);
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  // Every leader multicasts its intra list and at most one cross list.
  const std::uint64_t fills = net::payload_decodes(net::Tag::kTxList) - fills0;
  EXPECT_GE(fills, m);
  EXPECT_LE(fills, 2u * m);
  EXPECT_LT(fills, deliveries(engine, net::Tag::kTxList));

  // In isolation: one TX_LIST buffer for committee 0 reaches every other
  // member and is decoded, transactions included, exactly once. Its
  // signer is not the leader, so nobody votes.
  const CommitteeInfo& committee = engine.last_assignment().committees[0];
  const std::vector<net::NodeId> members = members_of(committee);
  wire::TxListMsg list;
  list.committee = 0;
  list.signed_list = crypto::make_signed(
      crypto::KeyPair::from_seed(77),
      wire::encode_tx_vec(engine.last_block().txs));
  const std::uint64_t before = net::payload_decodes(net::Tag::kTxList);
  const std::uint64_t sends0 = sends(engine);
  engine.net_mut().multicast(committee.leader, members, net::Tag::kTxList,
                             list.serialize());
  engine.net_mut().run(engine.net().now() + 10.0);
  EXPECT_EQ(net::payload_decodes(net::Tag::kTxList) - before, 1u);
  EXPECT_EQ(sends(engine) - sends0, members.size() - 1);
}

TEST(FanoutCache, MalformedEchoBufferIsDroppedByEveryReceiver) {
  Engine engine(params_for(2), AdversaryConfig{});
  ASSERT_GT(engine.run_round().txs_committed, 0u);

  // Between rounds, deliver two forged ECHO buffers to committee 0 in
  // isolation: a truncated envelope, and a well-formed envelope for the
  // committee's intra instance whose ECHO wire is garbage.
  const CommitteeInfo& committee = engine.last_assignment().committees[0];
  const std::vector<net::NodeId> members = members_of(committee);
  const net::NodeId sender = committee.leader;
  const wire::ConsensusEnvelope garbage{0, seq::intra(0),
                                        bytes_of("not an echo")};
  const net::Phase phase = engine.net().phase();
  const std::uint64_t echoes0 =
      engine.net().stats().at(phase, net::Tag::kEcho).msgs_sent;
  const std::uint64_t received0 =
      engine.net().stats().at(phase, net::Tag::kEcho).msgs_recv;
  const std::uint64_t sends0 = sends(engine);
  const std::uint64_t fills0 = net::payload_decodes(net::Tag::kEcho);
  engine.net_mut().multicast(sender, members, net::Tag::kEcho, Bytes{0, 0, 1});
  engine.net_mut().multicast(sender, members, net::Tag::kEcho,
                             garbage.serialize());
  const std::uint64_t forged_sends =
      engine.net().stats().at(phase, net::Tag::kEcho).msgs_sent - echoes0;
  engine.net_mut().run(engine.net().now() + 10.0);

  // Every receiver got both buffers, and each decode failed for every
  // one of them: neither buffer stored a decoding. Nobody reacted.
  const std::uint64_t receivers = members.size() - 1;
  EXPECT_EQ(forged_sends, 2 * receivers);
  EXPECT_EQ(engine.net().stats().at(phase, net::Tag::kEcho).msgs_recv -
                received0,
            forged_sends);
  EXPECT_EQ(net::payload_decodes(net::Tag::kEcho) - fills0, 0u);
  EXPECT_EQ(sends(engine) - sends0, forged_sends);

  // The protocol carries on.
  EXPECT_GT(engine.run_round().txs_committed, 0u);
}

TEST(FanoutCache, ForgedSemiCommitBatchesAreDroppedSafely) {
  Engine engine(params_for(3), AdversaryConfig{});
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  const RoundAssignment& assign = engine.last_assignment();
  const std::uint32_t m = engine.params().m;
  std::vector<net::NodeId> key_members;
  for (const CommitteeInfo& committee : assign.committees) {
    for (net::NodeId km : committee.key_members()) key_members.push_back(km);
  }
  const net::NodeId km = key_members.front();
  const crypto::Digest held = *engine.semicommitment(km, 0);
  const crypto::Digest forged = crypto::sha256(bytes_of("forged"));

  // From a referee seat: entries naming committees m and 2^32 - 1 are
  // dropped without touching per-committee storage (the slot vector would
  // otherwise grow to the forged index; ASan builds check the reads).
  wire::SemiCommitBatch out_of_range;
  out_of_range.entries = {{m, forged}, {0xFFFFFFFFu, forged}};
  // A truncated batch buffer fails to decode for every receiver.
  const Bytes truncated = Bytes{0, 0, 0, 2, 0};
  // From a non-referee: ignored before decoding, even for an in-range
  // committee.
  wire::SemiCommitBatch impostor;
  impostor.entries = {{0, forged}};

  const std::uint64_t fills0 = net::payload_decodes(net::Tag::kSemiCommitAck);
  // Delivered after run_round has returned: a seat of the next round.
  const net::NodeId referee = engine.assignment().referees.front();
  engine.net_mut().multicast(referee, key_members, net::Tag::kSemiCommitAck,
                             out_of_range.serialize());
  engine.net_mut().multicast(referee, key_members, net::Tag::kSemiCommitAck,
                             truncated);
  engine.net_mut().multicast(assign.committees[1].leader, key_members,
                             net::Tag::kSemiCommitAck, impostor.serialize());
  engine.net_mut().run(engine.net().now() + 10.0);

  for (net::NodeId id : key_members) {
    EXPECT_EQ(engine.semicommitment(id, m), nullptr);
    EXPECT_EQ(engine.semicommitment(id, 0xFFFFFFFFu), nullptr);
  }
  EXPECT_EQ(*engine.semicommitment(km, 0), held);
  // Only the well-formed referee batch stored a decoding.
  EXPECT_EQ(net::payload_decodes(net::Tag::kSemiCommitAck) - fills0, 1u);

  // The protocol carries on.
  EXPECT_GT(engine.run_round().txs_committed, 0u);
}

TEST(FanoutCache, DecodingIsFreedWithTheBuffer) {
  // A buffer lives as long as its pending deliveries, and its decoding
  // lives inside it: once a round has delivered it, both are gone.
  Engine engine(params_for(5), AdversaryConfig{});
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  const RoundAssignment& assign = engine.assignment();
  std::vector<net::NodeId> key_members;
  for (const CommitteeInfo& committee : assign.committees) {
    for (net::NodeId km : committee.key_members()) key_members.push_back(km);
  }
  // Decoded by every key member, and applied by none (no committee m).
  wire::SemiCommitBatch batch;
  batch.entries = {{engine.params().m, crypto::sha256(bytes_of("relayed"))}};
  std::weak_ptr<const net::Payload> held;
  {
    const net::PayloadPtr payload = net::make_payload(batch.serialize());
    held = payload;
    engine.net_mut().multicast_shared(assign.referees.front(), key_members,
                                      net::Tag::kSemiCommitAck, payload);
  }
  ASSERT_FALSE(held.expired());  // deliveries pending
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  EXPECT_TRUE(held.expired());
}

}  // namespace
}  // namespace cyc::protocol
