// InvariantChecker: green on honest and adversarial executions, and —
// crucially — non-vacuous: injected violations (a hand-corrupted shard
// UTXO view, a forged double-spend block, broken flow counters) must be
// flagged.
#include <gtest/gtest.h>

#include <algorithm>

#include "epoch/manager.hpp"
#include "harness/invariants.hpp"
#include "ledger/validator.hpp"
#include "protocol/payloads.hpp"

namespace cyc::harness {
namespace {

using protocol::AdversaryConfig;
using protocol::Behavior;
using protocol::Engine;
using protocol::Params;

Params small_params(std::uint64_t seed) {
  Params p;
  p.m = 3;
  p.c = 9;
  p.lambda = 3;
  p.referee_size = 5;
  p.txs_per_committee = 8;
  p.cross_shard_fraction = 0.3;
  p.invalid_fraction = 0.15;
  p.users = 60;
  p.seed = seed;
  return p;
}

bool has_invariant(const std::vector<Violation>& violations,
                   std::string_view name) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == name; });
}

/// Deterministic key pair whose public key lives in `shard` (of `m`).
crypto::KeyPair keypair_in_shard(ledger::ShardId shard, std::uint32_t m,
                                 std::uint64_t salt = 0) {
  for (std::uint64_t seed = 1 + salt * 1000; ; ++seed) {
    crypto::KeyPair kp = crypto::KeyPair::from_seed(seed);
    if (ledger::ShardMap(m).shard(kp.pk) == shard) return kp;
  }
}

TEST(InvariantChecker, HonestRunStaysGreen) {
  Engine engine(small_params(41), AdversaryConfig{});
  InvariantChecker checker(engine);
  for (int r = 0; r < 3; ++r) {
    const auto report = engine.run_round();
    EXPECT_EQ(checker.check_round(report), 0u) << "round " << report.round;
  }
  EXPECT_EQ(checker.rounds_checked(), 3u);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantChecker, AdversarialRecoveryRunStaysGreen) {
  AdversaryConfig adv;
  adv.corrupt_fraction = 0.2;
  adv.forced_corrupt_leader_fraction = 0.67;
  Engine engine(small_params(42), adv);
  InvariantChecker checker(engine);
  std::uint64_t recoveries = 0;
  for (int r = 0; r < 2; ++r) {
    const auto report = engine.run_round();
    recoveries += report.recoveries;
    EXPECT_EQ(checker.check_round(report), 0u) << "round " << report.round;
  }
  // The forced corrupt leaders must actually exercise the recovery path,
  // otherwise this test proves nothing about the recovery invariants.
  EXPECT_GE(recoveries, 1u);
}

TEST(InvariantChecker, FlagsHandCorruptedShardView) {
  Engine engine(small_params(43), AdversaryConfig{});
  InvariantChecker checker(engine);
  EXPECT_EQ(checker.check_round(engine.run_round()), 0u);

  // Conjure an output out of thin air in shard 0's authoritative view.
  const auto kp = keypair_in_shard(0, engine.params().m);
  ledger::OutPoint bogus;
  bogus.tx = crypto::sha256(bytes_of("forged-outpoint"));
  bogus.index = 0;
  ASSERT_TRUE(engine.shard_state_mut()[0].add(bogus, {kp.pk, 1000}));

  const auto report = engine.run_round();
  EXPECT_GT(checker.check_round(report), 0u);
  EXPECT_TRUE(has_invariant(checker.violations(), "utxo-mirror-digest"))
      << "the independent block replay must notice the conjured output";
}

TEST(InvariantChecker, FlagsDroppedOutputInShardView) {
  Engine engine(small_params(44), AdversaryConfig{});
  InvariantChecker checker(engine);
  EXPECT_EQ(checker.check_round(engine.run_round()), 0u);

  // Silently delete an unspent output (a corrupted committee "forgetting"
  // state it is responsible for).
  auto& store = engine.shard_state_mut()[1];
  const auto outpoints = store.outpoints();
  ASSERT_FALSE(outpoints.empty());
  ASSERT_TRUE(store.spend(outpoints.front()));

  engine.run_round();
  const auto report = engine.run_round();
  checker.check_round(report);
  EXPECT_TRUE(has_invariant(checker.violations(), "utxo-mirror-digest"));
}

TEST(InvariantChecker, FlagsInvalidTxReportedInTheBlock) {
  Engine engine(small_params(45), AdversaryConfig{});
  InvariantChecker checker(engine);
  auto report = engine.run_round();
  ASSERT_EQ(report.invalid_committed, 0u);
  // The report admits one ground-truth-invalid transaction in B^r.
  report.invalid_committed = 1;
  EXPECT_GT(checker.check_round(report), 0u);
  for (const auto& v : checker.violations()) {
    EXPECT_EQ(v.invariant, "safety-invalid-committed") << v.detail;
  }
}

TEST(InvariantChecker, FlagsReportThatDisagreesWithTheBlockHeader) {
  Engine engine(small_params(47), AdversaryConfig{});
  InvariantChecker checker(engine);
  auto report = engine.run_round();
  ASSERT_GT(report.txs_committed, 0u);
  // The report counts one transaction fewer than the header holds.
  report.txs_committed -= 1;
  checker.check_round(report);
  EXPECT_TRUE(has_invariant(checker.violations(), "block-body"));
}

TEST(InvariantChecker, FlagsChainThatDidNotAdvance) {
  Engine engine(small_params(48), AdversaryConfig{});
  InvariantChecker checker(engine);
  const auto report = engine.run_round();
  EXPECT_EQ(checker.check_round(report), 0u);
  // Checking the same round again: the chain is one block short of the
  // height the checker expects.
  checker.check_round(report);
  EXPECT_TRUE(has_invariant(checker.violations(), "chain-linkage"));
}

TEST(InvariantChecker, FlagsMemberThatAdoptsAnUnguardedBody) {
  Engine engine(small_params(49), AdversaryConfig{});
  InvariantChecker checker(engine);
  const auto report = engine.run_round();
  ASSERT_FALSE(engine.last_block().txs.empty());
  // A second spend of a B^r transaction's input, paying the spender:
  // what the block-level guard keeps out of B^r. A referee seat releases
  // it to one member of the spender's committee, and the member adopts it.
  const ledger::Transaction& kept = engine.last_block().txs.front();
  ledger::Transaction second = kept;
  second.outputs = {{kept.spender, 1}};
  protocol::wire::BlockMsg unguarded;
  unguarded.round = engine.round();  // delivered after run_round returned
  unguarded.txs = {second};
  const auto shard = ledger::input_shard(kept, *engine.shard_map());
  const net::NodeId member =
      engine.last_assignment().committees[shard].commons.front();
  engine.net_mut().send(engine.assignment().referees.front(), member,
                        net::Tag::kBlock, unguarded.serialize());
  engine.net_mut().run(engine.net().now() + 10.0);

  EXPECT_GT(checker.check_round(report), 0u);
  for (const auto& v : checker.violations()) {
    EXPECT_EQ(v.invariant, "member-view-digest") << v.detail;
  }
}

TEST(InvariantChecker, StaticDigestCheckSeesDivergence) {
  const auto map = std::make_shared<const ledger::ShardMap>(2);
  std::vector<ledger::UtxoStore> state, mirror;
  state.emplace_back(0, map);
  mirror.emplace_back(0, map);
  const auto kp = keypair_in_shard(0, 2);
  ledger::OutPoint op;
  op.tx = crypto::sha256(bytes_of("op"));
  ASSERT_TRUE(state[0].add(op, {kp.pk, 5}));

  std::vector<Violation> out;
  InvariantChecker::check_state_digests(state, mirror, 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, "utxo-mirror-digest");
}

// Build a signed transaction spending `in` to a fresh key.
ledger::Transaction make_spend(const crypto::KeyPair& owner,
                               const ledger::OutPoint& in,
                               const crypto::PublicKey& to,
                               ledger::Amount amount) {
  ledger::Transaction tx;
  tx.inputs = {in};
  tx.outputs = {{to, amount}};
  tx.spender = owner.pk;
  ledger::sign_tx(tx, owner.sk);
  return tx;
}

struct ForgeFixture {
  std::shared_ptr<const ledger::ShardMap> map =
      std::make_shared<const ledger::ShardMap>(2);
  crypto::KeyPair owner = keypair_in_shard(0, 2);
  crypto::KeyPair receiver = keypair_in_shard(1, 2, 1);
  ledger::OutPoint funded;
  std::set<std::string> committed_ids;
  std::unordered_set<ledger::OutPoint, ledger::OutPointHash> spent;
  std::vector<ledger::UtxoStore> mirror;

  ForgeFixture() {
    funded.tx = crypto::sha256(bytes_of("genesis-grant"));
    funded.index = 0;
    mirror.emplace_back(0, map);
    mirror.emplace_back(1, map);
    EXPECT_TRUE(mirror[0].add(funded, {owner.pk, 100}));
  }
};

TEST(InvariantChecker, FlagsForgedDoubleSpendBlock) {
  ForgeFixture fx;
  // Two distinct, individually well-signed spends of the same outpoint.
  const auto tx1 = make_spend(fx.owner, fx.funded, fx.receiver.pk, 90);
  const auto tx2 = make_spend(fx.owner, fx.funded, fx.receiver.pk, 80);
  const auto block = ledger::Block::build(1, crypto::Digest{}, crypto::Digest{},
                                          {tx1, tx2});
  std::vector<Violation> out;
  InvariantChecker::check_block_txs(block, *fx.map, fx.committed_ids, fx.spent,
                                    fx.mirror, 1, out);
  EXPECT_TRUE(has_invariant(out, "double-spend"));
}

TEST(InvariantChecker, FlagsTxCommittedTwiceAcrossBlocks) {
  ForgeFixture fx;
  const auto tx = make_spend(fx.owner, fx.funded, fx.receiver.pk, 90);
  const auto b1 = ledger::Block::build(1, crypto::Digest{}, crypto::Digest{},
                                       {tx});
  const auto b2 = ledger::Block::build(2, b1.header.hash(), crypto::Digest{},
                                       {tx});
  std::vector<Violation> out;
  InvariantChecker::check_block_txs(b1, *fx.map, fx.committed_ids, fx.spent,
                                    fx.mirror, 1, out);
  EXPECT_TRUE(out.empty());
  InvariantChecker::check_block_txs(b2, *fx.map, fx.committed_ids, fx.spent,
                                    fx.mirror, 2, out);
  EXPECT_TRUE(has_invariant(out, "block-exactly-once"));
  EXPECT_TRUE(has_invariant(out, "double-spend"));
}

TEST(InvariantChecker, FlagsTamperedSignatureAndUnknownInput) {
  ForgeFixture fx;
  auto tx = make_spend(fx.owner, fx.funded, fx.receiver.pk, 90);
  tx.sig.s ^= 1;  // tamper after signing
  ledger::OutPoint unknown;
  unknown.tx = crypto::sha256(bytes_of("never-existed"));
  const auto tx2 = make_spend(fx.owner, unknown, fx.receiver.pk, 10);
  const auto block = ledger::Block::build(1, crypto::Digest{}, crypto::Digest{},
                                          {tx, tx2});
  std::vector<Violation> out;
  InvariantChecker::check_block_txs(block, *fx.map, fx.committed_ids, fx.spent,
                                    fx.mirror, 1, out);
  EXPECT_TRUE(has_invariant(out, "tx-signature"));
  EXPECT_TRUE(has_invariant(out, "spend-of-missing-output"));
}

// ---------------------------------------------------------------------------
// Epoch-boundary invariants: green on a real boundary, and non-vacuous —
// forged EpochHandoff records (dropped carried tx, inflated reputation,
// stale chain head, smuggled role holders, stacked committees) must be
// flagged.
// ---------------------------------------------------------------------------

struct EpochFixture {
  epoch::EpochManager manager;

  /// `force_carryover` crashes a third of the round-1 leaders with
  /// recovery disabled, so their committees' valid transactions land on
  /// the Remaining TX List and the handoff actually carries txs.
  explicit EpochFixture(std::uint64_t seed, bool force_carryover = false)
      : manager(
            [&] {
              Params p = small_params(seed);
              p.standby = 8;
              p.invalid_fraction = 0.3;  // force a busy §IV-G drop path
              return p;
            }(),
            [&] {
              AdversaryConfig adv;
              if (force_carryover) {
                adv.forced_corrupt_leader_fraction = 0.34;
                adv.mix = {{Behavior::kCrash, 1.0}};
              }
              return adv;
            }(),
            [] {
              epoch::EpochConfig c;
              c.epochs = 2;
              c.rounds_per_epoch = 1;
              c.churn_rate = 0.2;
              return c;
            }(),
            [&] {
              protocol::EngineOptions options;
              if (force_carryover) options.recovery_enabled = false;
              return options;
            }()) {}

  /// Run through the first boundary; returns the genuine handoff.
  epoch::EpochHandoff cross_boundary(InvariantChecker& checker) {
    while (manager.handoffs().empty()) {
      checker.check_round(manager.run_round());
    }
    return manager.handoffs().front();
  }
};

TEST(InvariantChecker, ParallelBlockRunKeepsSubBlocksInsideTheBlock) {
  protocol::EngineOptions options;
  options.extension_parallel_blocks = true;
  Engine engine(small_params(46), AdversaryConfig{}, options);
  InvariantChecker checker(engine);
  std::size_t released = 0;
  for (int r = 0; r < 3; ++r) {
    const auto report = engine.run_round();
    EXPECT_EQ(checker.check_round(report), 0u) << "round " << report.round;
    released += engine.released_subblocks().size();
  }
  // Otherwise the invariant was never armed.
  EXPECT_GT(released, 0u);

  // Inject a forged sub-block transaction into the last round's record.
  auto forged = engine.released_subblocks();
  ASSERT_FALSE(forged.empty());
  ForgeFixture fx;
  forged.front().txs.push_back(
      make_spend(fx.owner, fx.funded, fx.receiver.pk, 90));
  std::vector<Violation> out;
  InvariantChecker::check_subblocks(forged, engine.last_block(),
                                    engine.round() - 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, "subblock-in-block");
}

TEST(InvariantChecker, FlagsSubBlockTxOutsideTheBlock) {
  ForgeFixture fx;
  const auto kept = make_spend(fx.owner, fx.funded, fx.receiver.pk, 90);
  // The losing half of a double spend against a block transaction: a
  // sub-block is a slice of the guarded B^r, so it never holds one.
  const auto conflicting = make_spend(fx.owner, fx.funded, fx.receiver.pk, 80);
  ledger::OutPoint other;
  other.tx = crypto::sha256(bytes_of("unacked-result"));
  const auto stray = make_spend(fx.owner, other, fx.receiver.pk, 10);
  const auto block = ledger::Block::build(1, crypto::Digest{}, crypto::Digest{},
                                          {kept});
  std::vector<Violation> out;
  InvariantChecker::check_subblocks({{0, {kept}}}, block, 1, out);
  EXPECT_TRUE(out.empty());
  InvariantChecker::check_subblocks({{0, {kept, conflicting}}}, block, 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, "subblock-in-block");
  InvariantChecker::check_subblocks({{1, {stray}}}, block, 1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].invariant, "subblock-in-block");
}

TEST(InvariantChecker, EpochBoundaryStaysGreenOnHonestRun) {
  EpochFixture fx(51);
  InvariantChecker checker(fx.manager.engine());
  const auto handoff = fx.cross_boundary(checker);
  EXPECT_EQ(checker.check_epoch_boundary(handoff), 0u)
      << (checker.violations().empty()
              ? ""
              : checker.violations().back().invariant + " — " +
                    checker.violations().back().detail);
  EXPECT_GT(handoff.joined.size(), 0u);
}

TEST(InvariantChecker, FlagsForgedHandoffDroppedCarriedTx) {
  EpochFixture fx(52, /*force_carryover=*/true);
  InvariantChecker checker(fx.manager.engine());
  epoch::EpochHandoff forged = fx.cross_boundary(checker);
  ASSERT_GT(forged.carried_txs, 0u)
      << "fixture must carry txs across the boundary or the test is vacuous";
  // A corrupted handoff silently drops one carried transaction.
  forged.carried_txs -= 1;
  forged.carried_digest = crypto::sha256(bytes_of("recomputed-after-drop"));
  std::vector<Violation> out;
  InvariantChecker::check_handoff_state(forged, fx.manager.engine(), out);
  EXPECT_TRUE(has_invariant(out, "epoch-tx-preservation"));
}

TEST(InvariantChecker, FlagsForgedHandoffInflatedReputation) {
  EpochFixture fx(53);
  InvariantChecker checker(fx.manager.engine());
  epoch::EpochHandoff forged = fx.cross_boundary(checker);
  forged.surviving_reputation += 10.0;  // conjured reputation
  std::vector<Violation> out;
  InvariantChecker::check_handoff_state(forged, fx.manager.engine(), out);
  EXPECT_TRUE(has_invariant(out, "epoch-reputation-conservation"));
  // The full boundary check (which also compares against its own
  // pre-boundary snapshot) flags it too.
  EXPECT_GT(checker.check_epoch_boundary(forged), 0u);
  EXPECT_TRUE(
      has_invariant(checker.violations(), "epoch-reputation-conservation"));
}

TEST(InvariantChecker, FlagsForgedHandoffStaleChainAndShardState) {
  EpochFixture fx(54);
  InvariantChecker checker(fx.manager.engine());
  const epoch::EpochHandoff genuine = fx.cross_boundary(checker);

  epoch::EpochHandoff forged = genuine;
  forged.chain_height += 1;
  forged.chain_tip = crypto::sha256(bytes_of("phantom-block"));
  std::vector<Violation> out;
  InvariantChecker::check_handoff_state(forged, fx.manager.engine(), out);
  EXPECT_TRUE(has_invariant(out, "epoch-handoff-continuity"));

  forged = genuine;
  ASSERT_FALSE(forged.shard_digests.empty());
  forged.shard_digests[0] = crypto::sha256(bytes_of("tampered-shard"));
  out.clear();
  InvariantChecker::check_handoff_state(forged, fx.manager.engine(), out);
  EXPECT_TRUE(has_invariant(out, "epoch-handoff-continuity"));
}

TEST(InvariantChecker, FlagsMembershipViolations) {
  EpochFixture fx(55);
  InvariantChecker checker(fx.manager.engine());
  const epoch::EpochHandoff genuine = fx.cross_boundary(checker);
  const auto& params = fx.manager.engine().params();

  // A record that pretends a current role holder is not a member.
  epoch::EpochHandoff forged = genuine;
  ASSERT_FALSE(forged.members.empty());
  const net::NodeId smuggled = forged.members.front();
  forged.members.erase(forged.members.begin());
  std::vector<Violation> out;
  InvariantChecker::check_handoff_membership(
      forged, fx.manager.engine().assignment(), params.m, params.lambda,
      params.referee_size, out);
  EXPECT_TRUE(has_invariant(out, "epoch-membership")) << "node " << smuggled;

  // A record whose "retired" node is still serving.
  forged = genuine;
  forged.retired.push_back(forged.members.front());
  out.clear();
  InvariantChecker::check_handoff_membership(
      forged, fx.manager.engine().assignment(), params.m, params.lambda,
      params.referee_size, out);
  EXPECT_TRUE(has_invariant(out, "epoch-membership"));
}

TEST(InvariantChecker, FlagsOutOfUniverseMemberIds) {
  // A tampered serialized record can carry arbitrary node ids; the audit
  // must flag them as membership violations, never index engine state
  // with them.
  EpochFixture fx(57);
  InvariantChecker checker(fx.manager.engine());
  epoch::EpochHandoff forged = fx.cross_boundary(checker);
  forged.members.push_back(
      static_cast<net::NodeId>(fx.manager.engine().node_count() + 1000));
  std::vector<Violation> out;
  InvariantChecker::check_handoff_state(forged, fx.manager.engine(), out);
  EXPECT_TRUE(has_invariant(out, "epoch-membership"));
  EXPECT_GT(checker.check_epoch_boundary(forged), 0u);
}

TEST(InvariantChecker, FlagsRiggedCommitteeDraw) {
  // 200 members, 5 corrupt — a fair draw of a 9-seat committee has a
  // ~1e-7 chance of a corrupt majority, so an assignment that stacks all
  // five corrupt nodes into committee 0 is evidence of rigging.
  std::vector<net::NodeId> members(200);
  for (net::NodeId id = 0; id < 200; ++id) members[id] = id;
  const auto corrupt = [](net::NodeId id) { return id < 5; };

  protocol::RoundAssignment assign;
  assign.round = 9;
  assign.referees = {100, 101, 102, 103, 104};
  assign.committees.resize(2);
  assign.committees[0].id = 0;
  assign.committees[0].leader = 0;
  assign.committees[0].partial = {1, 2};
  assign.committees[0].commons = {3, 4, 110, 111, 112, 113};
  assign.committees[1].id = 1;
  assign.committees[1].leader = 120;
  assign.committees[1].partial = {121, 122};
  assign.committees[1].commons = {123, 124, 125, 126, 127, 128};

  std::vector<Violation> out;
  InvariantChecker::check_committee_honesty(assign, members, corrupt, 9, out);
  EXPECT_TRUE(has_invariant(out, "epoch-committee-honest-majority"));

  // The same corrupt mass spread across committees is fine.
  assign.committees[0].partial = {110, 111};
  assign.committees[0].commons = {112, 113, 114, 115, 116, 117};
  out.clear();
  InvariantChecker::check_committee_honesty(assign, members, corrupt, 9, out);
  EXPECT_TRUE(out.empty());

  // Outside the threat model (>= 1/3 corrupt) the check is disarmed:
  // failure-probing scenarios are not flagged.
  const auto mostly_corrupt = [](net::NodeId id) { return id < 80; };
  assign.committees[0].leader = 0;
  assign.committees[0].partial = {1, 2};
  assign.committees[0].commons = {3, 4, 5, 6, 7, 8};
  out.clear();
  InvariantChecker::check_committee_honesty(assign, members, mostly_corrupt,
                                            9, out);
  EXPECT_TRUE(out.empty());
}

TEST(InvariantChecker, HighInvalidFractionExercisesDropPath) {
  // The invalid/x0.3 matrix point is only a flow-conservation spot check
  // if the §IV-G drop path actually fires: at a 30% ground-truth-invalid
  // workload, rounds must drop transactions and conservation must hold
  // with dropped > 0.
  Params p = small_params(56);
  p.invalid_fraction = 0.3;
  Engine engine(p, AdversaryConfig{});
  InvariantChecker checker(engine);
  std::uint64_t dropped = 0;
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(checker.check_round(engine.run_round()), 0u);
    dropped += engine.last_flow().dropped;
  }
  EXPECT_GT(dropped, 0u) << "spot check is vacuous without drops";
}

TEST(InvariantChecker, FlagsBrokenFlowConservation) {
  std::vector<Violation> out;
  protocol::RoundFlow flow;
  flow.offered = 10;
  flow.settled = 4;
  flow.carried = 3;
  flow.dropped = 2;  // 4 + 3 + 2 != 10
  InvariantChecker::check_flow(flow, 3, 1, out);
  EXPECT_TRUE(has_invariant(out, "flow-conservation"));

  out.clear();
  flow.dropped = 3;  // balanced again...
  flow.foreign = 1;  // ...but a result tx was never offered
  InvariantChecker::check_flow(flow, 3, 1, out);
  EXPECT_TRUE(has_invariant(out, "flow-conservation"));

  out.clear();
  flow.foreign = 0;
  InvariantChecker::check_flow(flow, 3, 1, out);
  EXPECT_TRUE(out.empty());

  // Carryover size disagreeing with the carried counter.
  InvariantChecker::check_flow(flow, 7, 1, out);
  EXPECT_TRUE(has_invariant(out, "flow-conservation"));
}

TEST(InvariantChecker, FlagsPartitionStraddleAndMissedResume) {
  // Non-vacuity of the fault-fabric invariants: fabricated stats a
  // buggy engine could emit must be flagged.
  std::vector<Violation> out;
  protocol::CommitteeRoundStats straddle;
  straddle.committee = 0;
  straddle.severed = true;
  straddle.produced_output = true;  // certified output while cut off
  InvariantChecker::check_partition_round(straddle, false, false, 5, out);
  EXPECT_TRUE(has_invariant(out, "partition-no-straddle"));

  // Healed and eligible but silent -> missed resume; ineligible -> green.
  protocol::CommitteeRoundStats healed;
  healed.committee = 1;
  out.clear();
  InvariantChecker::check_partition_round(healed, true, true, 6, out);
  EXPECT_TRUE(has_invariant(out, "partition-liveness-resume"));
  out.clear();
  InvariantChecker::check_partition_round(healed, true, false, 6, out);
  EXPECT_TRUE(out.empty());

  // A severed committee that stays quiet is correct degradation.
  protocol::CommitteeRoundStats quiet;
  quiet.committee = 2;
  quiet.severed = true;
  out.clear();
  InvariantChecker::check_partition_round(quiet, false, true, 7, out);
  EXPECT_TRUE(out.empty());
}

TEST(InvariantChecker, FlagsForgedCatchUpDigest) {
  crypto::Digest honest{};
  honest.fill(0x11);
  crypto::Digest forged{};
  forged.fill(0x22);

  protocol::CatchUpRecord rec;
  rec.node = 7;
  rec.round = 3;
  rec.attempt = 1;
  rec.confirms = 3;
  rec.success = true;
  rec.adopted_digest = forged;
  std::vector<Violation> out;
  InvariantChecker::check_catchup({rec}, honest, 3, out);
  EXPECT_TRUE(has_invariant(out, "restart-replay-digest"));

  // Adopting the honest replay digest is green.
  rec.adopted_digest = honest;
  out.clear();
  InvariantChecker::check_catchup({rec}, honest, 3, out);
  EXPECT_TRUE(out.empty());

  // Failed attempts adopted nothing; their digest field is not audited.
  rec.success = false;
  rec.adopted_digest = forged;
  out.clear();
  InvariantChecker::check_catchup({rec}, honest, 3, out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Load-aware re-draw invariants (epoch-rebalance-*): green on a genuine
// rebalance boundary, and non-vacuous — forged RebalancePlan records
// (divergent moves, wrong sources, inflated migration counts, unsafe
// splits) and a workload routing off a stale cached map must be flagged.
// ---------------------------------------------------------------------------

Params rebalance_params(std::uint64_t seed) {
  Params p = small_params(seed);
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.1;
  p.arrival_rate = 0.15;
  p.zipf_s = 1.4;
  p.mempool_cap = 16;
  p.rebalance = true;
  p.rebalance_moves = 4;
  return p;
}

struct RebalanceFixture {
  epoch::EpochManager manager;

  explicit RebalanceFixture(std::uint64_t seed)
      : manager(rebalance_params(seed), AdversaryConfig{}, [] {
          epoch::EpochConfig c;
          c.epochs = 2;
          c.rounds_per_epoch = 2;
          c.churn_rate = 0.0;
          return c;
        }()) {}

  /// Run through the first boundary; returns the genuine handoff.
  epoch::EpochHandoff cross_boundary(InvariantChecker& checker) {
    while (manager.handoffs().empty()) {
      checker.check_round(manager.run_round());
    }
    return manager.handoffs().front();
  }
};

TEST(InvariantChecker, RebalanceBoundaryStaysGreenAndRecordsAPlan) {
  RebalanceFixture fx(61);
  InvariantChecker checker(fx.manager.engine());
  const auto handoff = fx.cross_boundary(checker);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().back().invariant + " — " +
             checker.violations().back().detail;
  EXPECT_EQ(checker.check_epoch_boundary(handoff), 0u)
      << (checker.violations().empty()
              ? ""
              : checker.violations().back().invariant + " — " +
                    checker.violations().back().detail);
  ASSERT_TRUE(handoff.plan.has_value())
      << "rebalance is on: the handoff must carry the audit record";
  ASSERT_FALSE(handoff.plan->moves.empty())
      << "fixture must actually re-home accounts or the audit is vacuous";
  EXPECT_EQ(fx.manager.engine().shard_map()->digest(),
            handoff.plan->map_digest);
}

TEST(InvariantChecker, FlagsMissingRebalancePlan) {
  RebalanceFixture fx(62);
  InvariantChecker checker(fx.manager.engine());
  epoch::EpochHandoff forged = fx.cross_boundary(checker);
  ASSERT_TRUE(forged.plan.has_value());
  // A handoff that silently drops the re-draw record.
  forged.plan.reset();
  EXPECT_GT(checker.check_epoch_boundary(forged), 0u);
  EXPECT_TRUE(has_invariant(checker.violations(), "epoch-rebalance-plan"));
}

TEST(InvariantChecker, FlagsWorkloadRoutingOffAStaleCachedMap) {
  // A generator whose per-shard user buckets diverge from the installed
  // map would silently undo the re-draw. Forge user 0's bucket: hand the
  // generator a map that differs from the engine's in that user alone.
  // Same seed as the green test, so any violation below is the forgery.
  RebalanceFixture fx(61);
  InvariantChecker checker(fx.manager.engine());
  const auto handoff = fx.cross_boundary(checker);
  ASSERT_TRUE(handoff.plan.has_value());
  auto& engine = fx.manager.engine();
  const std::uint64_t key = engine.workload().user_pk(0).y;
  const ledger::ShardId truth = engine.shard_map()->shard_key(key);
  const ledger::ShardId forged_home = (truth + 1) % engine.params().m;
  engine.workload_mut().install_shard_map(
      std::make_shared<const ledger::ShardMap>(
          engine.shard_map()->apply({{key, truth, forged_home}})));
  ASSERT_EQ(engine.workload().shard_of_user(0), forged_home);
  EXPECT_GT(checker.check_epoch_boundary(handoff), 0u);
  EXPECT_TRUE(has_invariant(checker.violations(), "epoch-rebalance-mapping"));
  for (const auto& v : checker.violations()) {
    EXPECT_EQ(v.invariant, "epoch-rebalance-mapping")
        << "only the bucket audit should fire: " << v.detail;
  }
}

/// Synthetic planner inputs (identity map, skewed window) mirroring the
/// boundary audit's recomputation — forged plans feed the static helper
/// directly against these.
struct PlanAuditInputs {
  static constexpr std::uint32_t kShards = 3;

  ledger::ShardMap map{kShards};
  protocol::Params params;
  std::vector<std::pair<std::uint64_t, ledger::ShardId>> accounts;
  ledger::ShardLoadWindow window;
  epoch::RebalancePlan genuine;

  PlanAuditInputs() {
    params.rebalance = true;
    params.rebalance_moves = 4;
    for (std::uint64_t key = 1; key <= 30; ++key) {
      accounts.emplace_back(key, map.shard_key(key));
    }
    window.rounds = 10;
    window.offered.assign(kShards, 0);
    for (const auto& [key, shard] : accounts) {
      const std::uint64_t arrivals = shard == 0 ? 20 : 1;
      window.account_arrivals[key] = arrivals;
      window.offered[shard] += arrivals;
    }
    genuine = epoch::plan_rebalance(params, map, window, accounts, 2);
  }

  void audit(const epoch::RebalancePlan& plan,
             std::vector<Violation>& out) const {
    InvariantChecker::check_rebalance_plan(plan, params, map, window,
                                           accounts, /*round=*/4, out);
  }
};

TEST(InvariantChecker, RebalancePlanAuditGreenOnGenuinePlan) {
  PlanAuditInputs in;
  ASSERT_FALSE(in.genuine.moves.empty());
  std::vector<Violation> out;
  in.audit(in.genuine, out);
  EXPECT_TRUE(out.empty()) << out.back().invariant + " — " +
                                  out.back().detail;
}

TEST(InvariantChecker, FlagsForgedPlanDivergingFromRecomputation) {
  PlanAuditInputs in;
  epoch::RebalancePlan forged = in.genuine;
  // Silently drop one re-homing — the deterministic recomputation
  // disagrees bit for bit.
  forged.moves.pop_back();
  std::vector<Violation> out;
  in.audit(forged, out);
  EXPECT_TRUE(has_invariant(out, "epoch-rebalance-plan"));
}

TEST(InvariantChecker, FlagsForgedPlanOverTheMoveCap) {
  PlanAuditInputs in;
  epoch::RebalancePlan forged = in.genuine;
  for (const auto& [key, shard] : in.accounts) {
    if (forged.moves.size() > in.params.rebalance_moves) break;
    if (shard == 1) {
      forged.moves.push_back(ledger::AccountMove{key, 1, 2});
    }
  }
  ASSERT_GT(forged.moves.size(), in.params.rebalance_moves);
  std::vector<Violation> out;
  in.audit(forged, out);
  EXPECT_TRUE(has_invariant(out, "epoch-rebalance-plan"));
}

TEST(InvariantChecker, FlagsForgedPlanWithUnsoundMapping) {
  PlanAuditInputs in;
  std::vector<Violation> out;

  // A move claiming the account lives somewhere it doesn't.
  epoch::RebalancePlan forged = in.genuine;
  ASSERT_FALSE(forged.moves.empty());
  forged.moves[0].from = (forged.moves[0].from + 1) % PlanAuditInputs::kShards;
  in.audit(forged, out);
  EXPECT_TRUE(has_invariant(out, "epoch-rebalance-mapping"));

  // A move targeting a shard that does not exist.
  forged = in.genuine;
  forged.moves[0].to = PlanAuditInputs::kShards + 4;
  out.clear();
  in.audit(forged, out);
  EXPECT_TRUE(has_invariant(out, "epoch-rebalance-mapping"));
}

TEST(InvariantChecker, FlagsForgedMigrationRecord) {
  // Mirror stores with three outputs: two owned by the account the plan
  // re-homes, one by a bystander on the same shard.
  constexpr std::uint32_t kShards = 3;
  const crypto::KeyPair mover = keypair_in_shard(0, kShards);
  const crypto::KeyPair stayer = keypair_in_shard(0, kShards, 1);
  auto identity = std::make_shared<const ledger::ShardMap>(kShards);
  std::vector<ledger::UtxoStore> mirror;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    mirror.emplace_back(k, identity);
  }
  auto out_point = [](std::uint64_t i) {
    ledger::OutPoint op;
    op.tx = crypto::sha256(be64(i));
    op.index = 0;
    return op;
  };
  ASSERT_TRUE(mirror[0].add(out_point(1), {mover.pk, 40}));
  ASSERT_TRUE(mirror[0].add(out_point(2), {mover.pk, 10}));
  ASSERT_TRUE(mirror[0].add(out_point(3), {stayer.pk, 25}));

  epoch::RebalancePlan plan;
  plan.epoch = 2;
  plan.moves = {ledger::AccountMove{mover.pk.y, 0, 2}};
  plan.map_digest = identity->apply(plan.moves).digest();
  plan.migrated_outputs = 2;

  // The honest record replays green and advances the mirror map.
  {
    auto stores = mirror;
    ledger::ShardMap mirror_map(kShards);
    std::vector<Violation> out;
    InvariantChecker::check_rebalance_migration(plan, stores, mirror_map,
                                                /*round=*/4, out);
    EXPECT_TRUE(out.empty()) << out.back().invariant + " — " +
                                    out.back().detail;
    EXPECT_EQ(mirror_map.digest(), plan.map_digest);
    EXPECT_TRUE(stores[2].contains(out_point(1)));
    EXPECT_TRUE(stores[0].contains(out_point(3)));
  }

  // A record inflating the migrated-output count.
  {
    auto stores = mirror;
    ledger::ShardMap mirror_map(kShards);
    epoch::RebalancePlan forged = plan;
    forged.migrated_outputs = 5;
    std::vector<Violation> out;
    InvariantChecker::check_rebalance_migration(forged, stores, mirror_map,
                                                /*round=*/4, out);
    EXPECT_TRUE(has_invariant(out, "epoch-rebalance-tx-preservation"));
  }

  // A record whose map_digest does not match the successor map replayed
  // from its own moves.
  {
    auto stores = mirror;
    ledger::ShardMap mirror_map(kShards);
    epoch::RebalancePlan forged = plan;
    forged.map_digest = crypto::sha256(bytes_of("not-the-successor"));
    std::vector<Violation> out;
    InvariantChecker::check_rebalance_migration(forged, stores, mirror_map,
                                                /*round=*/4, out);
    EXPECT_TRUE(has_invariant(out, "epoch-rebalance-mapping"));
  }

  // Moves that cannot apply to the mirror map at all.
  {
    auto stores = mirror;
    ledger::ShardMap mirror_map(kShards);
    epoch::RebalancePlan forged = plan;
    forged.moves = {ledger::AccountMove{mover.pk.y, 0, kShards + 1}};
    std::vector<Violation> out;
    InvariantChecker::check_rebalance_migration(forged, stores, mirror_map,
                                                /*round=*/4, out);
    EXPECT_TRUE(has_invariant(out, "epoch-rebalance-mapping"));
  }
}

}  // namespace
}  // namespace cyc::harness
