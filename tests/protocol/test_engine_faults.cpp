// Fault-fabric lifecycle at the engine level: the crash -> restart ->
// referee catch-up protocol, its bounded retry budget, forged-voucher
// resistance, graceful degradation of a committee severed below referee
// quorum by a partition, and probabilistic loss confined to the
// wide-area links.
#include <gtest/gtest.h>

#include "protocol/engine.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {
namespace {

Params small_params(std::uint64_t seed) {
  Params p;
  p.m = 2;
  p.c = 9;
  p.lambda = 3;
  p.referee_size = 5;
  p.txs_per_committee = 8;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  p.users = 40;
  p.seed = seed;
  return p;
}

TEST(CrashRestart, AdoptsHonestReplayDigestAndRejoins) {
  Engine engine(small_params(1), {});
  const net::NodeId victim = 3;
  engine.corrupt(victim, Behavior::kCrash);  // effective round 2
  engine.run_round();
  const RoundReport r2 = engine.run_round();
  EXPECT_FALSE(engine.active(victim, r2.round));

  // The digest the referees serve during round 3's catch-up is exactly
  // the post-round-2 state (tip + per-shard views).
  const crypto::Digest expected =
      catchup_state_digest(engine.chain().tip().hash(), engine.shard_state());

  engine.restart(victim);
  const RoundReport r3 = engine.run_round();
  ASSERT_EQ(r3.catchup_events.size(), 1u);
  const CatchUpRecord& rec = r3.catchup_events.front();
  EXPECT_EQ(rec.node, victim);
  EXPECT_TRUE(rec.success);
  EXPECT_GT(rec.confirms, engine.params().referee_size / 2);
  EXPECT_TRUE(rec.adopted_digest == expected);
  // Still parked while catching up; rejoins the next round.
  EXPECT_FALSE(engine.active(victim, r3.round));
  const RoundReport r4 = engine.run_round();
  EXPECT_TRUE(engine.active(victim, r4.round));
}

TEST(CrashRestart, MalformedCatchUpTrafficIsDropped) {
  Engine engine(small_params(1), {});
  const net::NodeId victim = 3;
  engine.corrupt(victim, Behavior::kCrash);  // effective round 2
  engine.run_round();
  engine.run_round();
  engine.restart(victim);
  // Queued now, both land early in round 3: a request whose node id is
  // cut short, to a referee seat, and a reply whose digest is cut short,
  // from a referee seat to the catching-up node. Both must be dropped
  // without disturbing the round or the honest catch-up.
  const net::NodeId referee = engine.assignment().referees.front();
  engine.net_mut().send(victim, referee, net::Tag::kCatchUpRequest,
                        Bytes{0x00, 0x00});
  Writer reply;
  reply.bytes(Bytes(32, 0xab));
  Bytes truncated = reply.take();
  truncated.resize(truncated.size() - 5);
  engine.net_mut().send(referee, victim, net::Tag::kCatchUpReply, truncated);

  const RoundReport r3 = engine.run_round();
  EXPECT_EQ(r3.round, 3u);
  EXPECT_EQ(r3.invalid_committed, 0u);
  ASSERT_EQ(r3.catchup_events.size(), 1u);
  EXPECT_EQ(r3.catchup_events.front().node, victim);
  EXPECT_TRUE(r3.catchup_events.front().success);
  const RoundReport r4 = engine.run_round();
  EXPECT_TRUE(engine.active(victim, r4.round));
}

TEST(CrashRestart, ExhaustedRetriesRecrash) {
  Engine engine(small_params(2), {});
  const net::NodeId victim = 4;
  engine.corrupt(victim, Behavior::kCrash);
  engine.run_round();
  engine.run_round();
  engine.restart(victim);
  // Silence the victim: its catch-up requests never reach a referee, so
  // the retry budget (max_catchup_rounds) must expire into a re-crash.
  engine.blackout(victim, 3, 100);
  bool failed = false;
  bool succeeded = false;
  for (int i = 0; i < 6; ++i) {
    const RoundReport r = engine.run_round();
    for (const auto& rec : r.catchup_events) {
      if (rec.node != victim) continue;
      failed |= !rec.success;
      succeeded |= rec.success;
    }
  }
  EXPECT_TRUE(failed) << "retry budget must expire into a re-crash";
  EXPECT_FALSE(succeeded);
  EXPECT_FALSE(engine.active(victim, engine.round()));
}

TEST(CrashRestart, RestartOfLiveNodeIsNoOp) {
  Engine engine(small_params(5), {});
  engine.restart(2);  // shrinker-orphaned restart: deliberate no-op
  const RoundReport r1 = engine.run_round();
  EXPECT_TRUE(r1.catchup_events.empty());
  EXPECT_TRUE(engine.active(2, r1.round));
}

TEST(CrashRestart, ForgedMinorityCannotOutvoteHonestReferees) {
  // A quarter of the universe is corrupted from genesis: wherever those
  // identities land in C_R they vouch for forged state. Forged vouchers
  // are referee-specific and can never agree with each other, so the
  // honest majority's identical digest wins every tally.
  AdversaryConfig adv;
  adv.corrupt_fraction = 0.25;
  adv.mix = {{Behavior::kEquivocator, 1.0}};
  Engine engine(small_params(3), adv);
  net::NodeId victim = net::kNoNode;
  for (std::size_t id = 0; id < engine.node_count(); ++id) {
    if (engine.behavior_of(static_cast<net::NodeId>(id)) ==
        Behavior::kHonest) {
      victim = static_cast<net::NodeId>(id);
      break;
    }
  }
  ASSERT_NE(victim, net::kNoNode);
  engine.corrupt(victim, Behavior::kCrash);
  engine.run_round();
  engine.run_round();
  engine.restart(victim);
  bool adopted = false;
  for (int i = 0; i < 4 && !adopted; ++i) {
    // Expected digest moves every round; snapshot before running.
    const crypto::Digest expected = catchup_state_digest(
        engine.chain().tip().hash(), engine.shard_state());
    const RoundReport r = engine.run_round();
    for (const auto& rec : r.catchup_events) {
      if (rec.node != victim || !rec.success) continue;
      adopted = true;
      EXPECT_TRUE(rec.adopted_digest == expected)
          << "adopted digest must be the honest replay digest";
    }
  }
  EXPECT_TRUE(adopted);
}

TEST(Partition, SeveredCommitteeParksThenResumes) {
  Engine engine(small_params(4), {});
  // Cut committee 0 (leader + partials + commons together) from the
  // mainland for round 1; referees stay on the mainland, so the island
  // can never assemble a referee quorum.
  const auto island = engine.assignment().committees[0].all_members();
  engine.partition(island, 1, 2);
  const RoundReport r1 = engine.run_round();
  ASSERT_EQ(r1.committees.size(), 2u);
  EXPECT_TRUE(r1.committees[0].severed);
  EXPECT_FALSE(r1.committees[0].produced_output);
  EXPECT_FALSE(r1.committees[1].severed);
  EXPECT_TRUE(r1.committees[1].produced_output);
  // Healed at round 2: both committees certify output again.
  const RoundReport r2 = engine.run_round();
  EXPECT_FALSE(r2.committees[0].severed);
  EXPECT_TRUE(r2.committees[0].produced_output);
  EXPECT_TRUE(r2.committees[1].produced_output);
}

TEST(Partition, BlackedOutRefereeSeatIsSkippedForDesignation) {
  Engine engine(small_params(6), {});
  // Black out every referee: no committee can reach quorum, every
  // committee reports severed, and the round still terminates cleanly
  // with an empty block (graceful degradation, not a crash).
  for (net::NodeId ref : engine.assignment().referees) {
    engine.blackout(ref, 1, 2);
  }
  const RoundReport r1 = engine.run_round();
  for (const auto& stats : r1.committees) {
    EXPECT_TRUE(stats.severed);
    EXPECT_FALSE(stats.produced_output);
  }
  EXPECT_EQ(r1.txs_committed, 0u);
  // Referees back: output resumes.
  const RoundReport r2 = engine.run_round();
  for (const auto& stats : r2.committees) {
    EXPECT_TRUE(stats.produced_output);
  }
}

TEST(WideAreaLoss, IntraCommitteeLinksStayReliable) {
  // §III-B: the synchronous Delta bound holds inside a committee, so a
  // lossy profile degrades only the wide-area links. Every committee
  // intro (kConfig) and every vote (kVote) travels inside one committee
  // and must arrive, while the wide-area links do lose messages.
  Params p = small_params(3);
  p.faults.drop = 0.2;
  Engine engine(p, {});
  std::uint64_t lost = 0;
  std::uint64_t sent = 0;
  for (int i = 0; i < 3; ++i) {
    const RoundReport report = engine.run_round();
    lost += report.faults.lost;
    const net::TrafficStats& stats = engine.net().stats();
    for (std::size_t ph = 0; ph < static_cast<std::size_t>(net::Phase::kCount);
         ++ph) {
      const auto phase = static_cast<net::Phase>(ph);
      for (net::Tag tag : {net::Tag::kConfig, net::Tag::kVote}) {
        const net::Counter& c = stats.at(phase, tag);
        sent += c.msgs_sent;
        EXPECT_EQ(c.msgs_recv, c.msgs_sent)
            << "round " << report.round << ", " << net::phase_name(phase)
            << ", " << net::tag_name(tag);
      }
    }
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(lost, 0u) << "the wide-area links must lose messages";
}

}  // namespace
}  // namespace cyc::protocol
