#include "ledger/shard_map.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"

namespace cyc::ledger {
namespace {

constexpr std::uint32_t kShards = 4;

struct Fixture {
  std::vector<crypto::KeyPair> users;
  Fixture() {
    for (std::uint64_t i = 0; i < 64; ++i) {
      users.push_back(crypto::KeyPair::from_seed(i + 2000));
    }
  }
  const crypto::KeyPair& in_shard(ShardId s, std::size_t skip = 0) const {
    const ShardMap map(kShards);
    std::size_t found = 0;
    for (const auto& u : users) {
      if (map.shard(u.pk) == s) {
        if (found == skip) return u;
        ++found;
      }
    }
    throw std::runtime_error("no user in shard");
  }
};

OutPoint op(int i) {
  return OutPoint{crypto::sha256(be64(static_cast<std::uint64_t>(i))), 0};
}

TEST(ShardMap, IdentityMatchesStaticHash) {
  EXPECT_TRUE(ShardMap(kShards).identity());
  EXPECT_EQ(ShardMap(kShards).version(), 0u);
  // H("cyc.shard" ‖ be64(k)) mod m, recorded from the standalone hash
  // function that routed accounts before ShardMap became the only
  // authority: every shard assignment, and so every artifact, hangs on
  // these values.
  struct Pin {
    std::uint64_t key;
    std::uint32_t m;
    ShardId shard;
  };
  const Pin pins[] = {
      {0x0ull, 1, 0},
      {0x1ull, 2, 0},
      {0x2ull, 3, 1},
      {0x2aull, 4, 1},
      {0xf4243ull, 7, 2},
      {0xdeadbeefull, 8, 6},
      {0x123456789abcdefull, 16, 0},
      {0xffffffffffffffffull, 64, 21},
      {0x76adf1ull, 5, 0},
      {0x7a69ull, 32, 18},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(ShardMap(pin.m).shard_key(pin.key), pin.shard)
        << "key " << pin.key << ", m " << pin.m;
  }
}

TEST(ShardMap, ApplyOverridesAndBumpsVersion) {
  Fixture f;
  const ShardMap map(kShards);
  const auto& user = f.in_shard(0);
  const ShardMap next =
      map.apply({AccountMove{user.pk.y, 0, 2}});
  EXPECT_EQ(next.version(), 1u);
  EXPECT_FALSE(next.identity());
  EXPECT_EQ(next.shard(user.pk), 2u);
  // Everyone else keeps the hash assignment.
  for (const auto& u : f.users) {
    if (u.pk.y == user.pk.y) continue;
    EXPECT_EQ(next.shard(u.pk), map.shard(u.pk));
  }
  // The original map is unchanged (apply is functional).
  EXPECT_EQ(map.shard(user.pk), 0u);
  EXPECT_EQ(map.version(), 0u);
}

TEST(ShardMap, ApplyIsCanonicalMovingHomeErasesOverride) {
  Fixture f;
  const auto& user = f.in_shard(1);
  const ShardMap map(kShards);
  const ShardMap away = map.apply({AccountMove{user.pk.y, 1, 3}});
  EXPECT_EQ(away.overrides().size(), 1u);
  // Moving the account back to its hash home removes the override
  // entirely — two routes to the same assignment encode identically.
  const ShardMap back = away.apply({AccountMove{user.pk.y, 3, 1}});
  EXPECT_TRUE(back.overrides().empty());
  EXPECT_EQ(back.shard(user.pk), 1u);
}

TEST(ShardMap, ApplyRejectsOutOfRangeTarget) {
  const ShardMap map(kShards);
  EXPECT_THROW(map.apply({AccountMove{42, 0, kShards}}),
               std::invalid_argument);
}

TEST(ShardMap, DigestTracksContentAndVersion) {
  Fixture f;
  const auto& user = f.in_shard(2);
  const ShardMap map(kShards);
  const ShardMap moved = map.apply({AccountMove{user.pk.y, 2, 0}});
  EXPECT_NE(map.digest(), moved.digest());
  // An empty re-draw keeps the overrides but bumps the version — the
  // digest must change so the audit record stays in lockstep.
  EXPECT_NE(map.digest(), map.apply({}).digest());
  // Same content, same history => same digest.
  EXPECT_EQ(moved.digest(),
            map.apply({AccountMove{user.pk.y, 2, 0}}).digest());
}

TEST(ShardMap, FreeRoutingHelpersFollowTheMap) {
  Fixture f;
  const auto& spender = f.in_shard(0);
  const auto& payee = f.in_shard(1);
  Transaction tx;
  tx.spender = spender.pk;
  tx.outputs.push_back(TxOut{payee.pk, 5});
  const ShardMap map(kShards);
  EXPECT_EQ(input_shard(tx, map), 0u);
  EXPECT_EQ(output_shards(tx, map), (std::set<ShardId>{1}));
  EXPECT_FALSE(is_intra_shard(tx, map));
  // Re-home the payee onto the spender's shard: the tx becomes
  // intra-shard under the new map without its bytes changing.
  const ShardMap next = map.apply({AccountMove{payee.pk.y, 1, 0}});
  EXPECT_EQ(output_shards(tx, next), (std::set<ShardId>{0}));
  EXPECT_TRUE(is_intra_shard(tx, next));
}

TEST(ShardMap, MigrateStoresMovesExactlyTheRehomedOutputs) {
  Fixture f;
  auto identity = std::make_shared<const ShardMap>(kShards);
  std::vector<UtxoStore> stores;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    stores.emplace_back(k, identity);
  }

  const auto& mover = f.in_shard(0);
  const auto& stayer = f.in_shard(0, 1);
  ASSERT_TRUE(stores[0].add(op(1), TxOut{mover.pk, 100}));
  ASSERT_TRUE(stores[0].add(op(2), TxOut{mover.pk, 50}));
  ASSERT_TRUE(stores[0].add(op(3), TxOut{stayer.pk, 25}));

  Amount before = 0;
  for (const auto& store : stores) before += store.total_value();

  auto next = std::make_shared<const ShardMap>(
      identity->apply({AccountMove{mover.pk.y, 0, 3}}));
  const std::uint64_t migrated =
      migrate_stores(stores, *identity, next, {AccountMove{mover.pk.y, 0, 3}});
  EXPECT_EQ(migrated, 2u);

  // Both of the mover's outputs now live on shard 3; the stayer's stays.
  EXPECT_FALSE(stores[0].contains(op(1)));
  EXPECT_FALSE(stores[0].contains(op(2)));
  EXPECT_TRUE(stores[3].contains(op(1)));
  EXPECT_TRUE(stores[3].contains(op(2)));
  EXPECT_TRUE(stores[0].contains(op(3)));

  Amount after = 0;
  for (auto& store : stores) {
    after += store.total_value();
    // The XOR-multiset rolling digest must stay self-consistent through
    // the spend/add migration on every store.
    EXPECT_EQ(store.digest(), store.full_digest());
    EXPECT_EQ(store.shard_map().get(), next.get());
  }
  EXPECT_EQ(after, before);
}

TEST(ShardMap, MigrateStoresIsIdempotentForUnmovedAccounts) {
  Fixture f;
  auto identity = std::make_shared<const ShardMap>(kShards);
  std::vector<UtxoStore> stores;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    stores.emplace_back(k, identity);
  }
  const auto& user = f.in_shard(2);
  ASSERT_TRUE(stores[2].add(op(7), TxOut{user.pk, 10}));
  // A move that lands back on the hash home re-homes nothing.
  auto next = std::make_shared<const ShardMap>(
      identity->apply({AccountMove{user.pk.y, 2, 2}}));
  EXPECT_EQ(migrate_stores(stores, *identity, next,
                           {AccountMove{user.pk.y, 2, 2}}),
            0u);
  EXPECT_TRUE(stores[2].contains(op(7)));
}

TEST(Mempool, RestoreBypassesAdmissionControl) {
  ShardMempool pool(1);
  Transaction tx;
  tx.spender.y = 11;
  ASSERT_TRUE(pool.admit(tx, 1.0));
  EXPECT_TRUE(pool.full());
  // restore() must take the entry even though the pool is at capacity —
  // the boundary re-bucketing may not drop an admitted transaction.
  Transaction tx2;
  tx2.spender.y = 22;
  pool.restore(PendingTx{tx2, 2.0});
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.dropped(), 0u);
  EXPECT_EQ(pool.admitted(), 1u);  // counters untouched by restore
  const auto drained = pool.drain(2);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].tx.spender.y, 11u);
  EXPECT_EQ(drained[1].tx.spender.y, 22u);
  EXPECT_EQ(drained[1].arrival, 2.0);
}

TEST(Mempool, ExtractIfRemovesMatchesInFifoOrder) {
  ShardMempool pool(8);
  for (std::uint64_t y = 1; y <= 6; ++y) {
    Transaction tx;
    tx.spender.y = y;
    ASSERT_TRUE(pool.admit(tx, static_cast<double>(y)));
  }
  const auto evens =
      pool.extract_if([](const Transaction& tx) { return tx.spender.y % 2 == 0; });
  ASSERT_EQ(evens.size(), 3u);
  EXPECT_EQ(evens[0].tx.spender.y, 2u);
  EXPECT_EQ(evens[1].tx.spender.y, 4u);
  EXPECT_EQ(evens[2].tx.spender.y, 6u);
  EXPECT_EQ(evens[1].arrival, 4.0);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.admitted(), 6u);  // counters untouched
  const auto rest = pool.drain(3);
  EXPECT_EQ(rest[0].tx.spender.y, 1u);
  EXPECT_EQ(rest[1].tx.spender.y, 3u);
  EXPECT_EQ(rest[2].tx.spender.y, 5u);
}

}  // namespace
}  // namespace cyc::ledger
