// Load-aware epoch re-draw planner: deterministic plans, hot-shard
// re-homing under the safety gates, serde round-trips, and the optional
// plan field's byte-compatibility with pre-rebalance EpochHandoff
// records.
#include "epoch/rebalance.hpp"

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "epoch/handoff.hpp"

namespace cyc::epoch {
namespace {

constexpr std::uint32_t kShards = 3;
constexpr std::size_t kMembers = 60;
constexpr std::uint32_t kSeats = 9;

RebalanceConfig enabled_config() {
  RebalanceConfig cfg;
  cfg.enabled = true;
  cfg.max_moves = 4;
  return cfg;
}

/// A roster of synthetic accounts keyed so every account's map home is
/// whatever the identity hash says — moves in these tests reference the
/// homes the map actually reports.
std::vector<std::pair<std::uint64_t, ledger::ShardId>> roster(
    const ledger::ShardMap& map, std::size_t count) {
  std::vector<std::pair<std::uint64_t, ledger::ShardId>> accounts;
  for (std::uint64_t key = 1; key <= count; ++key) {
    accounts.emplace_back(key, map.shard_key(key));
  }
  return accounts;
}

/// A window where every account on `hot_shard` arrived often and the
/// rest barely at all — offered concentrates on the hot shard.
ledger::ShardLoadWindow skewed_window(
    const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
    ledger::ShardId hot_shard) {
  ledger::ShardLoadWindow window;
  window.rounds = 10;
  window.offered.assign(kShards, 0);
  window.dropped.assign(kShards, 0);
  window.occupancy_sum.assign(kShards, 0);
  for (const auto& [key, shard] : accounts) {
    const std::uint64_t arrivals = shard == hot_shard ? 20 : 1;
    window.account_arrivals[key] = arrivals;
    window.offered[shard] += arrivals;
  }
  return window;
}

TEST(Rebalance, PlanIsDeterministic) {
  const ledger::ShardMap map(kShards);
  const auto accounts = roster(map, 30);
  const auto window = skewed_window(accounts, 0);
  const RebalancePlan a = plan_rebalance(enabled_config(), map, window,
                                         accounts, kMembers, 5, kSeats, 2);
  const RebalancePlan b = plan_rebalance(enabled_config(), map, window,
                                         accounts, kMembers, 5, kSeats, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(Rebalance, MovesHottestAccountsOffTheOverloadedShard) {
  const ledger::ShardMap map(kShards);
  const auto accounts = roster(map, 30);
  const auto window = skewed_window(accounts, 0);
  const RebalancePlan plan = plan_rebalance(
      enabled_config(), map, window, accounts, kMembers, 5, kSeats, 2);
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_LE(plan.moves.size(), enabled_config().max_moves);
  for (const auto& mv : plan.moves) {
    EXPECT_EQ(mv.from, 0u) << "moves must come off the hot shard";
    EXPECT_NE(mv.to, 0u);
    EXPECT_EQ(map.shard_key(mv.account), 0u);
  }
  // Moves are recorded sorted by account and digest the successor map.
  for (std::size_t i = 1; i < plan.moves.size(); ++i) {
    EXPECT_LT(plan.moves[i - 1].account, plan.moves[i].account);
  }
  EXPECT_EQ(plan.map_digest, map.apply(plan.moves).digest());
  EXPECT_EQ(plan.m_after, plan.m_before);
}

TEST(Rebalance, DisabledOrEmptyWindowPlansIdentity) {
  const ledger::ShardMap map(kShards);
  const auto accounts = roster(map, 30);
  const auto window = skewed_window(accounts, 0);
  RebalanceConfig off = enabled_config();
  off.enabled = false;
  const RebalancePlan disabled = plan_rebalance(off, map, window, accounts,
                                                kMembers, 5, kSeats, 2);
  EXPECT_TRUE(disabled.moves.empty());
  // The identity decision still digests an applied (version-bumped) map
  // so the audit record matches what the engine installs.
  EXPECT_EQ(disabled.map_digest, map.apply({}).digest());

  const ledger::ShardLoadWindow empty;
  const RebalancePlan no_window = plan_rebalance(
      enabled_config(), map, empty, accounts, kMembers, 5, kSeats, 2);
  EXPECT_TRUE(no_window.moves.empty());
  EXPECT_EQ(no_window.map_digest, map.apply({}).digest());
}

TEST(Rebalance, NeverEmptiesAShardOfAccounts) {
  const ledger::ShardMap map(kShards);
  // One lonely account on its shard, hammered with arrivals.
  std::vector<std::pair<std::uint64_t, ledger::ShardId>> accounts;
  std::uint64_t lonely = 0;
  for (std::uint64_t key = 1; accounts.size() < 7; ++key) {
    const ledger::ShardId home = map.shard_key(key);
    if (home == 1 && lonely == 0) {
      lonely = key;
      accounts.emplace_back(key, home);
    } else if (home != 1) {
      accounts.emplace_back(key, home);
    }
  }
  ASSERT_NE(lonely, 0u);
  ledger::ShardLoadWindow window;
  window.rounds = 5;
  window.offered.assign(kShards, 1);
  window.dropped.assign(kShards, 0);
  window.occupancy_sum.assign(kShards, 0);
  window.offered[1] = 500;
  window.account_arrivals[lonely] = 500;
  const RebalancePlan plan = plan_rebalance(
      enabled_config(), map, window, accounts, kMembers, 5, kSeats, 2);
  EXPECT_TRUE(plan.moves.empty()) << "the last account may not be re-homed";
}

TEST(Rebalance, SplitGatedByFairDrawSafety) {
  const ledger::ShardMap map(kShards);
  const auto accounts = roster(map, 30);
  auto window = skewed_window(accounts, 0);
  window.dropped[0] = 40;  // capacity shortfall signal
  RebalanceConfig cfg = enabled_config();
  cfg.split_merge_budget = 1;

  // Safe population: zero corrupt members — the rescaled committee
  // cannot lose its majority, so the split recommendation goes through.
  const RebalancePlan safe = plan_rebalance(cfg, map, window, accounts,
                                            kMembers, 0, kSeats, 2);
  EXPECT_EQ(safe.m_after, kShards + 1);
  EXPECT_LE(safe.fair_draw_tail, kMaxFairDrawTail);

  // Hostile population: enough corrupt members that the smaller
  // rescaled committees would fail the exact-hypergeometric gate — the
  // recommendation must be withheld.
  const RebalancePlan unsafe = plan_rebalance(cfg, map, window, accounts,
                                              kMembers, 18, kSeats, 2);
  EXPECT_EQ(unsafe.m_after, kShards);
}

TEST(Rebalance, SerializationRoundTrips) {
  const ledger::ShardMap map(kShards);
  const auto accounts = roster(map, 30);
  const auto window = skewed_window(accounts, 0);
  RebalancePlan plan = plan_rebalance(enabled_config(), map, window,
                                      accounts, kMembers, 5, kSeats, 2);
  plan.migrated_outputs = 17;
  const RebalancePlan back = RebalancePlan::deserialize(plan.serialize());
  EXPECT_EQ(back, plan);
  EXPECT_EQ(back.digest(), plan.digest());
  EXPECT_THROW(RebalancePlan::deserialize(bytes_of("not a plan")),
               std::exception);
}

TEST(Rebalance, HandoffPlanFieldRoundTripsAndPinsTheDigest) {
  EpochHandoff h;
  h.epoch = 2;
  h.boundary_round = 4;
  h.members = {0, 1, 2};
  const Bytes legacy = h.serialize();

  const ledger::ShardMap map(kShards);
  const auto accounts = roster(map, 30);
  const auto window = skewed_window(accounts, 0);
  h.plan = plan_rebalance(enabled_config(), map, window, accounts,
                          kMembers, 5, kSeats, 2);
  const Bytes with_plan = h.serialize();
  const EpochHandoff back = EpochHandoff::deserialize(with_plan);
  EXPECT_EQ(back, h);
  ASSERT_TRUE(back.plan.has_value());
  EXPECT_EQ(back.plan->moves, h.plan->moves);

  // The optional plan is appended after the legacy fields: a plan-less
  // record keeps its exact pre-rebalance byte encoding (and digest), and
  // a plan-carrying record extends it as a strict prefix.
  ASSERT_GT(with_plan.size(), legacy.size());
  EXPECT_TRUE(std::equal(legacy.begin(), legacy.end(), with_plan.begin()));
  EXPECT_NE(EpochHandoff::deserialize(legacy).digest(), h.digest());
}

}  // namespace
}  // namespace cyc::epoch
