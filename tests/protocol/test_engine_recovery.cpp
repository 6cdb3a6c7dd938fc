// Focused tests of the leader re-selection procedure (Alg. 6, §V-D).
#include <gtest/gtest.h>

#include "protocol/engine.hpp"

namespace cyc::protocol {
namespace {

Params params_with(std::uint64_t seed) {
  Params p;
  p.m = 2;
  p.c = 9;
  p.lambda = 3;
  p.referee_size = 5;
  p.txs_per_committee = 8;
  p.cross_shard_fraction = 0.3;
  p.invalid_fraction = 0.0;
  p.seed = seed;
  return p;
}

AdversaryConfig one_bad_leader(Behavior behavior) {
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 0.5;  // leader of committee 0
  adv.mix = {{behavior, 1.0}};
  return adv;
}

TEST(Recovery, CrashLeaderEvicted) {
  AdversaryConfig adv = one_bad_leader(Behavior::kCrash);
  Engine engine(params_with(1), adv);
  // The forced behaviour cycles equivocator/forger/crash/concealer; pin
  // crash explicitly:
  const auto leader0 = engine.assignment().committees[0].leader;
  engine.corrupt(leader0, Behavior::kCrash);
  // corrupt() delays one round; run two rounds and check the round where
  // the node leads.
  const RoundReport r1 = engine.run_round();
  EXPECT_GT(r1.txs_committed, 0u);
}

TEST(Recovery, EquivocatorEvictedViaWitness) {
  Params p = params_with(2);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 0.5;
  Engine engine(p, adv);
  // forced corruption assigns kEquivocator to committee 0's leader.
  const auto leader0 = engine.assignment().committees[0].leader;
  ASSERT_EQ(engine.behavior_of(leader0), Behavior::kEquivocator);
  const RoundReport report = engine.run_round();
  ASSERT_GE(report.recoveries, 1u);
  EXPECT_EQ(report.recovery_events[0].old_leader, leader0);
  // The committee still produced output through the new leader.
  EXPECT_TRUE(report.committees[0].produced_output);
}

TEST(Recovery, AtMostOneConvictionPerCommitteePerIncident) {
  Params p = params_with(3);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 1.0;  // both leaders corrupt
  Engine engine(p, adv);
  const RoundReport report = engine.run_round();
  // Each committee recovered at least once but the recovery count stays
  // bounded by the configured maximum.
  for (const auto& c : report.committees) {
    EXPECT_LE(c.recoveries, 4u);
  }
}

TEST(Recovery, ReplacementIsPartialSetMember) {
  Params p = params_with(4);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 0.5;
  Engine engine(p, adv);
  std::vector<std::vector<net::NodeId>> partials;
  for (const auto& c : engine.assignment().committees) {
    partials.push_back(c.partial);
  }
  const RoundReport report = engine.run_round();
  ASSERT_GE(report.recovery_events.size(), 1u);
  for (const auto& event : report.recovery_events) {
    const auto& partial = partials[event.committee];
    EXPECT_NE(std::find(partial.begin(), partial.end(), event.new_leader),
              partial.end())
        << "replacement not from the partial set";
  }
}

TEST(Recovery, DisabledRecoveryMeansNoEvictions) {
  Params p = params_with(5);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 1.0;
  EngineOptions opts;
  opts.recovery_enabled = false;
  Engine engine(p, adv, opts);
  const RoundReport report = engine.run_round();
  EXPECT_EQ(report.recoveries, 0u);
  // At least one committee lost its output (RapidChain-like behaviour).
  std::size_t produced = 0;
  for (const auto& c : report.committees) {
    if (c.produced_output) ++produced;
  }
  EXPECT_LT(produced, report.committees.size());
}

TEST(Recovery, SystemRecoversInLaterRounds) {
  // After the round with corrupted leaders, reputation-ranked selection
  // picks honest leaders and the system returns to clean rounds.
  Params p = params_with(6);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 0.5;
  Engine engine(p, adv);
  const RoundReport r1 = engine.run_round();
  EXPECT_GE(r1.recoveries, 1u);
  const RoundReport r2 = engine.run_round();
  EXPECT_GT(r2.txs_committed, 0u);
  // The convicted leader (cube-rooted, no bonus) cannot out-rank honest
  // leaders, so round 2 needs no recovery.
  EXPECT_EQ(r2.recoveries, 0u);
}

TEST(Recovery, EvictedLeaderLosesLeaderRole) {
  Params p = params_with(7);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 0.5;
  Engine engine(p, adv);
  const auto old_leader = engine.assignment().committees[0].leader;
  const RoundReport report = engine.run_round();
  ASSERT_GE(report.recoveries, 1u);
  // Next round's leaders exclude the convicted node (its punished
  // reputation ranks below honest nodes with earned scores).
  for (const auto& committee : engine.assignment().committees) {
    EXPECT_NE(committee.leader, old_leader);
  }
}

TEST(Recovery, RecoveryLatencyBounded) {
  // A round with recoveries must not run past the scheduled horizon —
  // the recovery happens inside the round (high-efficiency claim).
  Params p = params_with(8);
  AdversaryConfig adv;
  adv.forced_corrupt_leader_fraction = 1.0;
  Engine with_adv(p, adv);
  Engine honest(p, AdversaryConfig{});
  const double adv_latency = with_adv.run_round().round_latency;
  const double honest_latency = honest.run_round().round_latency;
  EXPECT_LT(adv_latency, honest_latency * 1.5);
}

}  // namespace
}  // namespace cyc::protocol
