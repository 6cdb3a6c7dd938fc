// Shared member views: the released block is decoded once per payload,
// members of a committee share one immutable view, a member that misses
// the release keeps its round-start view, and every other member ends the
// round on its shard's chain state.
#include <gtest/gtest.h>

#include <set>

#include "protocol/engine.hpp"

namespace cyc::protocol {
namespace {

Params params_for(std::uint32_t m, std::uint64_t seed) {
  Params p;
  p.m = m;
  p.c = 8;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.25;
  p.invalid_fraction = 0.0;
  p.seed = seed;
  return p;
}

std::vector<net::NodeId> members_of(const CommitteeInfo& committee) {
  std::vector<net::NodeId> ids = committee.key_members();
  ids.insert(ids.end(), committee.commons.begin(), committee.commons.end());
  return ids;
}

TEST(SharedViews, OneDecodePerReleasedBlockAndAtMostOneViewPerShard) {
  constexpr std::uint32_t kM = 8;
  Engine engine(params_for(kM, 1), AdversaryConfig{});
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t decodes = net::payload_decodes(net::Tag::kBlock);
    const RoundReport report = engine.run_round();
    ASSERT_GT(report.txs_committed, 0u);
    // One released block payload this round, decoded exactly once for
    // all of its receivers.
    EXPECT_EQ(net::payload_decodes(net::Tag::kBlock) - decodes, 1u)
        << "round " << report.round;

    std::set<const ledger::UtxoStore*> views;
    std::size_t members = 0;
    for (const auto& committee : engine.last_assignment().committees) {
      for (net::NodeId id : members_of(committee)) {
        const ledger::UtxoStore& view = engine.member_view(id);
        views.insert(&view);
        members += 1;
        // Every member adopted the block: its view is the committee's
        // authoritative post-block shard state.
        EXPECT_EQ(view.shard(), committee.id);
        EXPECT_EQ(view.digest(), engine.shard_state()[committee.id].digest());
      }
    }
    EXPECT_LE(views.size(), kM);
    EXPECT_GT(members, 4 * views.size());
  }
}

TEST(SharedViews, SubBlocksAreDecodedOncePerLeaderPayload) {
  // §VIII-B: each leader broadcasts its own sub-block; every payload is
  // still decoded once, however many members receive it.
  constexpr std::uint32_t kM = 4;
  EngineOptions options;
  options.extension_parallel_blocks = true;
  Engine engine(params_for(kM, 2), AdversaryConfig{}, options);
  const std::uint64_t decodes = net::payload_decodes(net::Tag::kSubBlock);
  const RoundReport report = engine.run_round();
  ASSERT_GT(report.txs_committed, 0u);
  EXPECT_EQ(net::payload_decodes(net::Tag::kSubBlock) - decodes, kM);
}

TEST(SharedViews, MemberThatMissesTheReleaseKeepsItsRoundStartView) {
  Engine engine(params_for(4, 3), AdversaryConfig{});
  const CommitteeInfo& committee = engine.assignment().committees[0];
  ASSERT_GE(committee.commons.size(), 2u);
  const net::NodeId victim = committee.commons[0];
  const net::NodeId peer = committee.commons[1];
  const ledger::UtxoStore round_start_state = engine.shard_state()[0];
  const crypto::Digest round_start = round_start_state.digest();

  engine.blackout(victim, engine.round(), engine.round() + 1);
  const RoundReport report = engine.run_round();
  ASSERT_GT(report.txs_committed, 0u);

  const crypto::Digest post_block = engine.shard_state()[0].digest();
  ASSERT_NE(post_block, round_start) << "block must touch shard 0";
  // The leader's successor was built from the view the victim still
  // shares; building it must not have leaked into that view.
  const net::NodeId leader = engine.last_assignment().committees[0].leader;
  EXPECT_EQ(engine.member_view(leader).digest(), post_block);
  const ledger::UtxoStore& kept = engine.member_view(victim);
  EXPECT_EQ(kept.digest(), round_start);
  EXPECT_EQ(kept.full_digest(), round_start);
  EXPECT_EQ(kept.size(), round_start_state.size());
  EXPECT_EQ(kept.total_value(), round_start_state.total_value());
  EXPECT_EQ(kept.outpoints(), round_start_state.outpoints());
  EXPECT_EQ(engine.member_view(peer).digest(), post_block);
  EXPECT_NE(&engine.member_view(victim), &engine.member_view(peer));
}

TEST(SharedViews, MemberViewsEqualTheChainWhenTheGuardFires) {
  // Seed 1's first round certifies two spends of one outpoint, and B^r
  // keeps only the first (§VIII-B). Members must adopt that B^r, whether
  // C_R releases it whole or each leader releases its committee's part.
  Params p = params_for(3, 1);
  p.c = 9;
  p.lambda = 3;
  p.txs_per_committee = 8;
  p.cross_shard_fraction = 0.3;
  p.invalid_fraction = 0.15;
  p.users = 60;
  for (bool parallel_blocks : {false, true}) {
    EngineOptions options;
    options.extension_parallel_blocks = parallel_blocks;
    Engine engine(p, AdversaryConfig{}, options);
    const RoundReport report = engine.run_round();
    // Rejections beyond the ground-truth drops are the guard's.
    ASSERT_GT(report.invalid_rejected - engine.last_flow().dropped, 0u);
    for (const auto& committee : engine.last_assignment().committees) {
      for (net::NodeId id : committee.all_members()) {
        EXPECT_EQ(engine.member_view(id).digest(),
                  engine.shard_state()[committee.id].digest())
            << "member " << id << " of committee " << committee.id
            << (parallel_blocks ? ", sub-blocks" : ", one block");
      }
    }
  }
}

}  // namespace
}  // namespace cyc::protocol
