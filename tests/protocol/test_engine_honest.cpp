// Integration tests: full rounds with honest participants.
#include <gtest/gtest.h>

#include <map>

#include "ledger/light_client.hpp"
#include "protocol/engine.hpp"

namespace cyc::protocol {
namespace {

Params small_params(std::uint64_t seed = 1) {
  Params p;
  p.m = 3;
  p.c = 8;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.25;
  p.invalid_fraction = 0.1;
  p.seed = seed;
  return p;
}

TEST(EngineHonest, SingleRoundCommitsTransactions) {
  Engine engine(small_params(), AdversaryConfig{});
  const RoundReport report = engine.run_round();
  EXPECT_GT(report.txs_committed, 0u);
  EXPECT_FALSE(report.block_void);
  EXPECT_EQ(report.recoveries, 0u);
  EXPECT_EQ(report.invalid_committed, 0u);
}

TEST(EngineHonest, ValidityPropertyHolds) {
  // §III-D Validity: every committed transaction passes V; ground-truth
  // invalid transactions never land in a block.
  auto params = small_params(2);
  params.invalid_fraction = 0.3;
  Engine engine(params, AdversaryConfig{});
  const RunReport report = engine.run(4);
  EXPECT_EQ(report.total_invalid_committed(), 0u);
  std::size_t rejected = 0;
  for (const auto& r : report.rounds) rejected += r.invalid_rejected;
  EXPECT_GT(rejected, 0u);  // the workload did inject invalid txs
}

TEST(EngineHonest, MultiRoundProgress) {
  Engine engine(small_params(3), AdversaryConfig{});
  const RunReport report = engine.run(4);
  ASSERT_EQ(report.rounds.size(), 4u);
  for (const auto& r : report.rounds) {
    EXPECT_GT(r.txs_committed, 0u) << "round " << r.round;
    EXPECT_FALSE(r.block_void);
  }
}

TEST(EngineHonest, CrossShardTransactionsCommit) {
  auto params = small_params(4);
  params.cross_shard_fraction = 0.5;
  params.invalid_fraction = 0.0;
  Engine engine(params, AdversaryConfig{});
  const RunReport report = engine.run(3);
  std::size_t cross = 0;
  for (const auto& r : report.rounds) cross += r.cross_committed;
  EXPECT_GT(cross, 0u);
}

TEST(EngineHonest, DeterministicAcrossRuns) {
  Engine a(small_params(5), AdversaryConfig{});
  Engine b(small_params(5), AdversaryConfig{});
  const auto ra = a.run(2);
  const auto rb = b.run(2);
  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (std::size_t i = 0; i < ra.rounds.size(); ++i) {
    EXPECT_EQ(ra.rounds[i].txs_committed, rb.rounds[i].txs_committed);
    EXPECT_EQ(ra.rounds[i].traffic_total.msgs_sent,
              rb.rounds[i].traffic_total.msgs_sent);
  }
  EXPECT_EQ(ra.final_reputations, rb.final_reputations);
}

TEST(EngineHonest, SeedsChangeOutcome) {
  Engine a(small_params(6), AdversaryConfig{});
  Engine b(small_params(7), AdversaryConfig{});
  const auto ra = a.run(1);
  const auto rb = b.run(1);
  EXPECT_NE(ra.rounds[0].traffic_total.bytes_sent,
            rb.rounds[0].traffic_total.bytes_sent);
}

TEST(EngineHonest, ReputationAccumulatesForVoters) {
  Engine engine(small_params(8), AdversaryConfig{});
  const RunReport report = engine.run(3);
  double total_rep = 0.0;
  for (double rep : report.final_reputations) total_rep += rep;
  EXPECT_GT(total_rep, 0.0);  // honest voting earns positive scores
}

TEST(EngineHonest, RewardsDistributedWhenFeesCollected) {
  Engine engine(small_params(9), AdversaryConfig{});
  const RunReport report = engine.run(3);
  double fees = 0.0;
  for (const auto& r : report.rounds) fees += r.total_fees;
  double rewards = 0.0;
  for (double w : report.final_rewards) rewards += w;
  EXPECT_GT(fees, 0.0);
  EXPECT_NEAR(rewards, fees, 1e-6);  // all fees are redistributed
}

TEST(EngineHonest, RoleAssignmentsComplete) {
  Engine engine(small_params(10), AdversaryConfig{});
  const auto& assign = engine.assignment();
  EXPECT_EQ(assign.referees.size(), 5u);
  ASSERT_EQ(assign.committees.size(), 3u);
  std::set<net::NodeId> seen(assign.referees.begin(), assign.referees.end());
  for (const auto& committee : assign.committees) {
    EXPECT_NE(committee.leader, net::kNoNode);
    EXPECT_EQ(committee.partial.size(), 2u);
    for (net::NodeId id : committee.all_members()) {
      EXPECT_TRUE(seen.insert(id).second) << "node in two roles";
    }
  }
  EXPECT_EQ(seen.size(), engine.node_count());
}

TEST(EngineHonest, RolesRotateAcrossRounds) {
  Engine engine(small_params(11), AdversaryConfig{});
  const auto referees_r1 = engine.assignment().referees;
  engine.run_round();
  const auto referees_r2 = engine.assignment().referees;
  EXPECT_NE(referees_r1, referees_r2);
  EXPECT_EQ(engine.assignment().round, 2u);
}

TEST(EngineHonest, RandomnessAdvancesEachRound) {
  Engine engine(small_params(12), AdversaryConfig{});
  const auto r1 = engine.randomness();
  engine.run_round();
  const auto r2 = engine.randomness();
  EXPECT_NE(r1, r2);
}

TEST(EngineHonest, LedgerConservation) {
  // No value is created: total UTXO value never exceeds the genesis
  // total (fees are burned from the UTXO set and redistributed as
  // abstract rewards).
  auto params = small_params(13);
  params.invalid_fraction = 0.0;
  Engine engine(params, AdversaryConfig{});
  ledger::Amount genesis_total = 0;
  for (const auto& store : engine.shard_state()) {
    genesis_total += store.total_value();
  }
  engine.run(3);
  ledger::Amount after = 0;
  for (const auto& store : engine.shard_state()) {
    after += store.total_value();
  }
  EXPECT_LE(after, genesis_total);
}

TEST(EngineHonest, TrafficAccountedPerRole) {
  Engine engine(small_params(14), AdversaryConfig{});
  const RoundReport report = engine.run_round();
  // A role's traffic is the sum of its per-phase counters.
  std::map<Role, net::Counter> by_role;
  net::Counter all_roles;
  for (const auto& [role, phases] : report.traffic_by_role_phase) {
    for (const auto& c : phases) {
      by_role[role] += c;
      all_roles += c;
    }
  }
  EXPECT_GT(by_role[Role::kLeader].msgs_sent, 0u);
  EXPECT_GT(by_role[Role::kReferee].msgs_sent, 0u);
  EXPECT_GT(by_role[Role::kCommon].msgs_sent, 0u);
  EXPECT_EQ(all_roles.msgs_sent, report.traffic_total.msgs_sent);
  EXPECT_EQ(all_roles.bytes_recv, report.traffic_total.bytes_recv);
  // Per-role storage proxies exist and referees hold the most state.
  EXPECT_GT(report.storage_by_role.at(Role::kReferee), 0.0);
}

TEST(EngineHonest, ForgedSendFromUnknownNodeThrows) {
  Engine engine(small_params(16), AdversaryConfig{});
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  const net::Counter before = engine.net().stats().grand_total();
  const net::FaultStats faults_before = engine.net().stats().faults();
  const bool idle_before = engine.net().idle();
  const auto sender = static_cast<net::NodeId>(engine.node_count());
  // Rejected before the engine's link classifier reads per-node state.
  EXPECT_THROW(engine.net_mut().send(sender, 0, net::Tag::kEcho, Bytes{1}),
               std::out_of_range);
  const net::Counter after = engine.net().stats().grand_total();
  EXPECT_EQ(after.msgs_sent, before.msgs_sent);
  EXPECT_EQ(after.bytes_sent, before.bytes_sent);
  EXPECT_EQ(engine.net().stats().faults(), faults_before);
  EXPECT_EQ(engine.net().idle(), idle_before);
}

TEST(EngineHonest, ForgedVoteCommitteeOutOfRange) {
  // A kVote naming committee m (one past the last) is dropped before its
  // id indexes the per-committee round state.
  const Params params = small_params(17);
  Engine engine(params, AdversaryConfig{});
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  rng::Stream rng(17);
  wire::VoteMsg forged;
  forged.committee = params.m;
  forged.signed_vote = crypto::make_signed(crypto::KeyPair::generate(rng),
                                           wire::encode_vote_vec({}));
  const Bytes payload = forged.serialize();
  for (net::NodeId to = 1; to < engine.node_count(); ++to) {
    engine.net_mut().send(0, to, net::Tag::kVote, payload);
  }
  const RoundReport next = engine.run_round();
  EXPECT_GT(next.txs_committed, 0u);
  EXPECT_FALSE(next.block_void);
}

TEST(EngineHonest, ForgedMemberListCountMismatch) {
  // A MEM_LIST with two keys and no node ids is dropped at decode; a
  // receiver never indexes the node ids by the key count.
  const Params params = small_params(17);
  Engine engine(params, AdversaryConfig{});
  ASSERT_GT(engine.run_round().txs_committed, 0u);
  wire::MemberListMsg forged;
  forged.pks = {crypto::KeyPair::from_seed(1).pk,
                crypto::KeyPair::from_seed(2).pk};
  const Bytes payload = forged.serialize();
  for (net::NodeId to = 1; to < engine.node_count(); ++to) {
    engine.net_mut().send(0, to, net::Tag::kMemberList, payload);
  }
  const RoundReport next = engine.run_round();
  EXPECT_GT(next.txs_committed, 0u);
  EXPECT_FALSE(next.block_void);
}

TEST(EngineHonest, ForgedMemberListIsIgnored) {
  // Alg. 2: a MEM_LIST only ever answers a common member's CONFIG and
  // comes from a round-start key member. A common member that sends its
  // own leader a list of every member of the other committees must not
  // grow the leader's S: the referees certify committee 0's result
  // against S, so a larger S would leave the committee without a quorum.
  Engine honest(small_params(), AdversaryConfig{});
  const RoundReport expected = honest.run_round();

  Engine engine(small_params(), AdversaryConfig{});
  const RoundAssignment& assign = engine.assignment();
  ASSERT_GE(assign.committees.size(), 3u);
  const net::NodeId leader = assign.committees[0].leader;
  const net::NodeId sender = assign.committees[0].commons.front();
  wire::MemberListMsg forged;
  for (std::uint32_t k = 1; k <= 2; ++k) {
    const CommitteeInfo& committee = assign.committees[k];
    std::vector<net::NodeId> members = committee.key_members();
    members.insert(members.end(), committee.commons.begin(),
                   committee.commons.end());
    for (net::NodeId id : members) {
      forged.nodes.push_back(id);
      forged.pks.push_back(engine.public_key(id));
    }
  }
  engine.net_mut().schedule(0.5, [&](net::Time) {
    engine.net_mut().send(sender, leader, net::Tag::kMemberList,
                          forged.serialize());
  });
  const RoundReport report = engine.run_round();

  ASSERT_EQ(report.committees.size(), expected.committees.size());
  EXPECT_TRUE(report.committees[0].produced_output);
  EXPECT_EQ(report.txs_committed, expected.txs_committed);
  EXPECT_EQ(report.recoveries, 0u);
}

TEST(EngineHonest, ThroughputScalesWithCommittees) {
  // §III-D Scalability: more committees -> more committed transactions
  // per round (quasi-linear growth).
  std::size_t prev = 0;
  for (std::uint32_t m : {2u, 4u, 6u}) {
    Params params = small_params(15);
    params.m = m;
    params.users = 32 * m;
    Engine engine(params, AdversaryConfig{});
    const RoundReport report = engine.run_round();
    EXPECT_GT(report.txs_committed, prev) << "m=" << m;
    prev = report.txs_committed;
  }
}

TEST(EngineHonest, ChainGrowsAndValidates) {
  Engine engine(small_params(17), AdversaryConfig{});
  const RunReport report = engine.run(3);
  const auto& chain = engine.chain();
  EXPECT_EQ(chain.height(), 3u);
  EXPECT_TRUE(chain.validate());
  // Header tx counts match the round reports.
  for (std::size_t r = 0; r < report.rounds.size(); ++r) {
    EXPECT_EQ(chain.header_at(r + 1).tx_count,
              report.rounds[r].txs_committed);
  }
}

TEST(EngineHonest, LightClientFollowsEngineChain) {
  // An external user tracks only headers and still verifies inclusion of
  // any committed payment (Fig. 2 step 4 from the user's perspective).
  Engine engine(small_params(19), AdversaryConfig{});
  engine.run(2);
  const auto& chain = engine.chain();
  ledger::LightClient client;
  for (std::size_t h = 1; h <= chain.height(); ++h) {
    EXPECT_TRUE(client.accept_header(chain.header_at(h)));
  }
  EXPECT_EQ(client.height(), chain.height());
  // The randomness committed at each height matches what the engine used.
  const auto r = client.randomness_at(chain.height());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, engine.randomness());
}

TEST(EngineHonest, SameRoundDoubleSpendNeverCommits) {
  // The workload injects correctly-signed double-spend pairs; voters and
  // the referee's block-level guard must keep the second spend out.
  auto params = small_params(18);
  params.invalid_fraction = 0.4;
  Engine engine(params, AdversaryConfig{});
  const RunReport report = engine.run(4);
  EXPECT_EQ(report.total_invalid_committed(), 0u);
  EXPECT_GT(report.total_committed(), 0u);
  // Ledger integrity: no value created.
  ledger::Amount total = 0;
  for (const auto& store : engine.shard_state()) total += store.total_value();
  EXPECT_GT(total, 0u);
}

TEST(EngineHonest, BlockVoidOnlyWhenNothingCommits) {
  auto params = small_params(16);
  params.txs_per_committee = 0;  // nothing offered
  Engine engine(params, AdversaryConfig{});
  const RoundReport report = engine.run_round();
  EXPECT_EQ(report.txs_committed, 0u);
  EXPECT_TRUE(report.block_void);
}

}  // namespace
}  // namespace cyc::protocol
