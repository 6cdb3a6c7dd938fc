// Integration tests: full rounds with honest participants.
#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

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

TEST(EngineHonest, ForgedBlockIsIgnored) {
  // Only a referee seat releases B^r (§IV-G). A common member of
  // committee 0 that hands its committee a "block" spending every
  // genesis output of shard 0 must not empty the members' views: they
  // would then vote down their whole list.
  Engine honest(small_params(), AdversaryConfig{});
  const RoundReport expected = honest.run_round();

  Engine engine(small_params(), AdversaryConfig{});
  const CommitteeInfo committee = engine.assignment().committees[0];
  const net::NodeId sender = committee.commons.front();
  const ledger::UtxoStore& shard0 = engine.shard_state()[0];
  wire::BlockMsg forged;
  forged.round = engine.round();
  for (const ledger::OutPoint& op : shard0.outpoints()) {
    ledger::Transaction tx;
    tx.inputs = {op};
    tx.spender = shard0.get(op)->owner;
    forged.txs.push_back(tx);
  }
  ASSERT_FALSE(forged.txs.empty());
  const auto payload = forged.serialize();
  engine.net_mut().schedule(1.0, [&](net::Time) {
    for (net::NodeId id : committee.all_members()) {
      if (id != sender) {
        engine.net_mut().send(sender, id, net::Tag::kBlock, payload);
      }
    }
  });
  const RoundReport report = engine.run_round();

  ASSERT_EQ(report.committees.size(), expected.committees.size());
  EXPECT_EQ(report.committees[0].txs_committed,
            expected.committees[0].txs_committed);
  EXPECT_EQ(report.txs_committed, expected.txs_committed);
  EXPECT_EQ(report.recoveries, 0u);
}

TEST(EngineHonest, ReplayedOldBlockIsIgnored) {
  // A released block binds to its round. After round 4's release, a
  // round-4 referee seat re-sends round 1's block to every member: no
  // member may apply it, so every view ends round 4 on its shard's store.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Engine engine(small_params(seed), AdversaryConfig{});
    engine.run_round();
    wire::BlockMsg old;
    old.round = 1;
    old.txs = engine.last_block().txs;
    old.randomness = engine.randomness();
    old.body_root = engine.last_block().header.body_root;
    ASSERT_FALSE(old.txs.empty());
    const auto payload = net::make_payload(old.serialize());
    engine.run(2);

    const RoundAssignment round4 = engine.assignment();
    const net::Time release_done =
        engine.net().now() + engine.params().round_duration();
    engine.net_mut().schedule(release_done, [&](net::Time) {
      for (const CommitteeInfo& committee : round4.committees) {
        for (net::NodeId id : committee.all_members()) {
          engine.net_mut().send_shared(round4.referees.front(), id,
                                       net::Tag::kBlock, payload);
        }
      }
    });
    ASSERT_EQ(engine.run_round().round, 4u);
    for (const CommitteeInfo& committee : round4.committees) {
      for (net::NodeId id : committee.all_members()) {
        EXPECT_EQ(engine.member_view(id).digest(),
                  engine.shard_state()[committee.id].digest())
            << "seed " << seed << ", member " << id;
      }
    }
  }
}

TEST(EngineHonest, ForgedBlockPermitReleasesNothing) {
  // §VIII-B: only C_R permits a leader to release its sub-block, and a
  // leader releases once per round. Five permits forged by a committee-1
  // common member during the block phase must not make committee 0's
  // leader broadcast its sub-block again.
  EngineOptions opts;
  opts.extension_parallel_blocks = true;
  Engine honest(small_params(), AdversaryConfig{}, opts);
  const RoundReport expected = honest.run_round();
  const std::size_t expected_subblocks = honest.released_subblocks().size();
  ASSERT_GT(expected_subblocks, 0u);

  Engine engine(small_params(), AdversaryConfig{}, opts);
  const RoundAssignment& assign = engine.assignment();
  const net::NodeId leader = assign.committees[0].leader;
  const net::NodeId sender = assign.committees[1].commons.front();
  const Params& p = engine.params();
  const double block_phase =
      p.round_duration() - p.block_duration * p.delays.delta;
  constexpr int kForged = 5;
  engine.net_mut().schedule(block_phase + 1.0, [&](net::Time) {
    for (int i = 0; i < kForged; ++i) {
      engine.net_mut().send(sender, leader, net::Tag::kBlockPermit,
                            Bytes(40, 0));
    }
  });
  const RoundReport report = engine.run_round();

  EXPECT_EQ(engine.released_subblocks().size(), expected_subblocks);
  EXPECT_EQ(report.traffic_total.msgs_sent,
            expected.traffic_total.msgs_sent + kForged);
  EXPECT_EQ(report.txs_committed, expected.txs_committed);
}

TEST(EngineHonest, ForgedNewLeaderIsIgnored) {
  // Alg. 6: only a referee announces a certified re-selection. A forged
  // NEW_LEADER from a common member, sent after the honest TXList, must
  // not make the partial set accuse its honest leader of a timeout.
  Engine honest(small_params(), AdversaryConfig{});
  const RoundReport expected = honest.run_round();

  Engine engine(small_params(), AdversaryConfig{});
  const CommitteeInfo committee = engine.assignment().committees[0];
  const net::NodeId sender = committee.commons.front();
  wire::NewLeaderMsg forged;
  forged.committee = 0;
  forged.evicted = engine.public_key(committee.leader);
  forged.new_leader = engine.public_key(committee.partial.front());
  const auto payload = forged.serialize();
  engine.net_mut().schedule(45.0, [&](net::Time) {
    for (net::NodeId id : committee.partial) {
      engine.net_mut().send(sender, id, net::Tag::kNewLeader, payload);
    }
  });
  const RoundReport report = engine.run_round();

  EXPECT_EQ(report.traffic_total.msgs_sent,
            expected.traffic_total.msgs_sent + committee.partial.size());
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

TEST(EngineHonest, GuardLosersLeaveTheInFlightTable) {
  // Seed 3 certifies, in round 1, a valid spend and an injected
  // kDoubleSpendPair re-spend of its input, and B^r keeps the injection
  // (§VIII-B: the first spend wins). The valid loser settled, so it is
  // neither committed nor carried: it must leave the generator's
  // in-flight table, and its spent input must not come back.
  auto params = small_params(3);
  params.invalid_fraction = 0.3;
  Engine engine(params, AdversaryConfig{});
  std::size_t losers = 0;
  for (int r = 0; r < 3; ++r) {
    // A copy of the generator draws the batch the round is about to draw.
    ledger::WorkloadGenerator twin = engine.workload();
    std::vector<ledger::Transaction> offered = engine.carryover();
    const std::size_t want = params.txs_per_committee * params.m;
    const std::size_t fresh = want > offered.size() ? want - offered.size() : 0;
    for (auto& tx : twin.next_batch(fresh)) offered.push_back(std::move(tx));
    (void)engine.run_round();

    std::unordered_set<ledger::TxId, ledger::TxIdHash> ids, kept;
    for (const auto& tx : offered) ids.insert(tx.id());
    for (const auto& tx : engine.last_block().txs) {
      ASSERT_TRUE(ids.contains(tx.id())) << "the twin drew another batch";
      kept.insert(tx.id());
    }
    for (const auto& tx : engine.carryover()) kept.insert(tx.id());
    for (const auto& tx : offered) {
      const ledger::TxId id = tx.id();
      if (!twin.is_ground_truth_valid(id) || kept.contains(id)) continue;
      losers += 1;  // valid and settled, yet not in B^r: a guard loser
      EXPECT_FALSE(engine.workload().is_ground_truth_valid(id))
          << "round " << r + 1 << " guard loser still in flight";
    }
  }
  EXPECT_GT(losers, 0u);
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
