// Decode-once fan-out cache: each multicast PROPOSE / ECHO buffer is
// decoded once however many members receive it, the cache drains with
// the network, and a malformed buffer is dropped by every receiver. The
// referees' semi-commitment batches ride the same cache.
#include <gtest/gtest.h>

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

/// Consensus messages delivered this round, read from the SimNet's
/// (phase, tag) traffic table (reset at round start).
std::uint64_t consensus_deliveries(const Engine& engine) {
  std::uint64_t delivered = 0;
  for (std::size_t p = 0; p < static_cast<std::size_t>(net::Phase::kCount);
       ++p) {
    for (net::Tag tag :
         {net::Tag::kPropose, net::Tag::kEcho, net::Tag::kConfirm}) {
      delivered +=
          engine.net().stats().at(static_cast<net::Phase>(p), tag).msgs_recv;
    }
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
    const std::uint64_t decodes0 = wire::consensus_decodes();
    // Every PROPOSE / ECHO multicast and every CONFIRM send encodes one
    // envelope buffer.
    const std::uint64_t buffers0 = wire::consensus_encodes();
    const RoundReport report = engine.run_round();
    ASSERT_GT(report.txs_committed, 0u);

    const std::uint64_t decodes = wire::consensus_decodes() - decodes0;
    const std::uint64_t buffers = wire::consensus_encodes() - buffers0;
    const std::uint64_t delivered = consensus_deliveries(engine);
    EXPECT_GT(decodes, 0u) << "round " << report.round;
    EXPECT_LE(decodes, buffers) << "round " << report.round;
    EXPECT_LT(buffers, delivered) << "round " << report.round;
    // Every cached buffer has had its last delivery handled.
    EXPECT_EQ(engine.fanout_cache_size(), 0u) << "round " << report.round;
  }
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
  const std::uint64_t sends0 = sends(engine);
  const std::uint64_t decodes0 = wire::consensus_decodes();
  engine.net_mut().multicast(sender, members, net::Tag::kEcho, Bytes{0, 0, 1});
  engine.net_mut().multicast(sender, members, net::Tag::kEcho,
                             garbage.serialize());
  const std::uint64_t forged_sends =
      engine.net().stats().at(phase, net::Tag::kEcho).msgs_sent - echoes0;
  engine.net_mut().run(engine.net().now() + 10.0);

  // Each receiver failed on the truncated envelope itself (nothing is
  // cached for it); the well-formed envelope was decoded once and its
  // ECHO wire failed for every receiver. Nobody reacted.
  const std::uint64_t receivers = members.size() - 1;
  EXPECT_EQ(forged_sends, 2 * receivers);
  EXPECT_EQ(wire::consensus_decodes() - decodes0, receivers + 1);
  EXPECT_EQ(sends(engine) - sends0, forged_sends);
  EXPECT_EQ(engine.fanout_cache_size(), 0u);

  // The protocol carries on.
  EXPECT_GT(engine.run_round().txs_committed, 0u);
  EXPECT_EQ(engine.fanout_cache_size(), 0u);
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
  // From a non-referee: ignored, even for an in-range committee.
  wire::SemiCommitBatch impostor;
  impostor.entries = {{0, forged}};

  const net::NodeId referee = assign.referees.front();
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
  EXPECT_EQ(engine.fanout_cache_size(), 0u);

  // The protocol carries on.
  EXPECT_GT(engine.run_round().txs_committed, 0u);
  EXPECT_EQ(engine.fanout_cache_size(), 0u);
}

}  // namespace
}  // namespace cyc::protocol
