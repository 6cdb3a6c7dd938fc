// Decode-once fan-out cache: each multicast PROPOSE / ECHO buffer is
// decoded once however many members receive it, the cache drains with
// the network, and a malformed buffer is dropped by every receiver.
#include <gtest/gtest.h>

#include <set>
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

bool is_consensus(net::Tag tag) {
  return tag == net::Tag::kPropose || tag == net::Tag::kEcho ||
         tag == net::Tag::kConfirm;
}

/// Counts consensus payload buffers in the send stream. SimNet's multicast
/// sends one buffer to distinct receivers back to back, so a PROPOSE /
/// ECHO buffer is a maximal run of sends with one sender and tag and no
/// repeated receiver; every CONFIRM is sent on its own buffer.
struct BufferCounter {
  std::uint64_t buffers = 0;
  net::NodeId from = net::kNoNode;
  net::Tag tag = net::Tag::kConfig;
  std::set<net::NodeId> receivers;

  void on_send(const net::SendInfo& s) {
    if (!is_consensus(s.tag)) {
      from = net::kNoNode;
      return;
    }
    const bool same_buffer = s.tag != net::Tag::kConfirm && s.from == from &&
                             s.tag == tag && !receivers.contains(s.to);
    if (!same_buffer) {
      ++buffers;
      from = s.from;
      tag = s.tag;
      receivers.clear();
    }
    receivers.insert(s.to);
  }
};

std::vector<net::NodeId> members_of(const CommitteeInfo& committee) {
  std::vector<net::NodeId> ids = committee.key_members();
  ids.insert(ids.end(), committee.commons.begin(), committee.commons.end());
  return ids;
}

TEST(FanoutCache, HonestRoundDecodesEachConsensusBufferOnce) {
  Engine engine(params_for(1), AdversaryConfig{});
  BufferCounter counter;
  std::uint64_t deliveries = 0;
  engine.net_mut().set_send_probe(
      [&](const net::SendInfo& s) { counter.on_send(s); });
  engine.net_mut().set_deliver_probe([&](const net::DeliverInfo& d) {
    if (is_consensus(d.tag)) ++deliveries;
  });
  for (int r = 0; r < 2; ++r) {
    const std::uint64_t decodes0 = wire::consensus_decodes();
    const std::uint64_t buffers0 = counter.buffers;
    const std::uint64_t deliveries0 = deliveries;
    const RoundReport report = engine.run_round();
    ASSERT_GT(report.txs_committed, 0u);

    const std::uint64_t decodes = wire::consensus_decodes() - decodes0;
    const std::uint64_t buffers = counter.buffers - buffers0;
    const std::uint64_t delivered = deliveries - deliveries0;
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
  std::uint64_t sends = 0;
  engine.net_mut().set_send_probe([&](const net::SendInfo&) { ++sends; });
  const std::uint64_t decodes0 = wire::consensus_decodes();
  engine.net_mut().multicast(sender, members, net::Tag::kEcho, Bytes{0, 0, 1});
  engine.net_mut().multicast(sender, members, net::Tag::kEcho,
                             garbage.serialize());
  const std::uint64_t forged_sends = sends;
  engine.net_mut().run(engine.net().now() + 10.0);

  // Each receiver failed on the truncated envelope itself (nothing is
  // cached for it); the well-formed envelope was decoded once and its
  // ECHO wire failed for every receiver. Nobody reacted.
  const std::uint64_t receivers = members.size() - 1;
  EXPECT_EQ(forged_sends, 2 * receivers);
  EXPECT_EQ(wire::consensus_decodes() - decodes0, receivers + 1);
  EXPECT_EQ(sends, forged_sends);
  EXPECT_EQ(engine.fanout_cache_size(), 0u);

  // The protocol carries on.
  engine.net_mut().set_send_probe(nullptr);
  EXPECT_GT(engine.run_round().txs_committed, 0u);
  EXPECT_EQ(engine.fanout_cache_size(), 0u);
}

}  // namespace
}  // namespace cyc::protocol
