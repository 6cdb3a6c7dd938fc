// RoutedBlock property: applying a store's routed slice equals applying
// every transaction of the block with UtxoStore::apply.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ledger/routed_block.hpp"
#include "ledger/utxo.hpp"
#include "support/rng.hpp"

namespace cyc::ledger {
namespace {

constexpr std::uint32_t kM = 5;

struct Ledger {
  std::vector<crypto::PublicKey> accounts;
  std::vector<UtxoStore> stores;
  std::vector<OutPoint> live;  // genesis outpoints, spendable by the block
  std::vector<crypto::PublicKey> live_owner;
};

std::vector<crypto::PublicKey> make_accounts(rng::Stream& rng) {
  std::vector<crypto::PublicKey> accounts;
  for (int a = 0; a < 40; ++a) {
    accounts.push_back(crypto::PublicKey{1 + rng.next() % (crypto::kP - 1)});
  }
  return accounts;
}

/// Four genesis outputs per account, stored under `map` (or under the
/// static hash when `map` is null).
Ledger make_ledger(std::vector<crypto::PublicKey> accounts, rng::Stream& rng,
                   const std::shared_ptr<const ShardMap>& map) {
  Ledger l;
  l.accounts = std::move(accounts);
  for (std::uint32_t s = 0; s < kM; ++s) {
    l.stores.emplace_back(s, kM);
    if (map) l.stores.back().attach_map(map);
  }
  for (std::uint64_t a = 0; a < l.accounts.size(); ++a) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      const OutPoint op{crypto::sha256(concat({be64(a), be64(k)})), k};
      const TxOut out{l.accounts[a], 100 + rng.below(900)};
      for (auto& store : l.stores) store.add(op, out);  // lands in one
      l.live.push_back(op);
      l.live_owner.push_back(l.accounts[a]);
    }
  }
  return l;
}

/// Every third account re-homed off its hash shard.
std::shared_ptr<const ShardMap> rebalanced(
    const std::vector<crypto::PublicKey>& accounts) {
  std::vector<AccountMove> moves;
  for (std::size_t a = 0; a < accounts.size(); a += 3) {
    const ShardId from = shard_of(accounts[a], kM);
    moves.push_back({accounts[a].y, from,
                     static_cast<ShardId>((from + 1 + a % 3) % kM)});
  }
  return std::make_shared<const ShardMap>(ShardMap(kM).apply(moves));
}

/// A random block: spends of genesis outputs paying one to three
/// (often cross-shard) owners, unknown inputs, a spend of an output
/// created earlier in the same block, and an identical re-insert (the
/// same transaction twice).
std::vector<Transaction> make_block(rng::Stream& rng, Ledger& l) {
  std::vector<Transaction> txs;
  for (int t = 0; t < 60; ++t) {
    Transaction tx;
    const std::size_t pick = rng.below(l.live.size());
    tx.spender = l.live_owner[pick];
    tx.inputs.push_back(l.live[pick]);
    if (rng.chance(0.2)) {
      tx.inputs.push_back(OutPoint{crypto::sha256(be64(rng.next())), 0});
    }
    const std::uint64_t outs = 1 + rng.below(3);
    for (std::uint64_t o = 0; o < outs; ++o) {
      tx.outputs.push_back(
          TxOut{l.accounts[rng.below(l.accounts.size())], 1 + rng.below(50)});
    }
    txs.push_back(tx);
    if (t % 7 == 3) {
      // Spend the output just created, from its owner.
      Transaction chained;
      chained.spender = tx.outputs[0].owner;
      chained.inputs.push_back(OutPoint{tx.id(), 0});
      chained.outputs.push_back(
          TxOut{l.accounts[rng.below(l.accounts.size())], 1});
      txs.push_back(chained);
    }
    if (t % 11 == 5) txs.push_back(tx);  // identical re-insert
  }
  return txs;
}

void expect_same(const UtxoStore& a, const UtxoStore& b) {
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.full_digest(), b.full_digest());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_value(), b.total_value());
  EXPECT_EQ(a.outpoints(), b.outpoints());
}

enum class MapKind { kIdentity, kUnattached, kRebalanced };

void check_property(MapKind kind, std::uint64_t seed) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    rng::Stream rng(seed * 1000 + trial);
    std::vector<crypto::PublicKey> accounts = make_accounts(rng);
    const std::shared_ptr<const ShardMap> map =
        kind == MapKind::kRebalanced ? rebalanced(accounts)
                                     : std::make_shared<const ShardMap>(kM);
    if (kind == MapKind::kRebalanced) {
      ASSERT_FALSE(map->identity());
    }
    // An unattached store routes by the static hash, which the identity
    // map reproduces exactly.
    Ledger l = make_ledger(std::move(accounts), rng,
                           kind == MapKind::kUnattached ? nullptr : map);
    const std::vector<Transaction> txs = make_block(rng, l);
    const RoutedBlock routed(txs, *map);
    ASSERT_EQ(routed.txs(), txs);
    std::size_t touched = 0;
    for (std::uint32_t s = 0; s < kM; ++s) {
      UtxoStore full = l.stores[s];
      for (const auto& tx : txs) full.apply(tx);
      UtxoStore sliced = l.stores[s];
      routed.apply_to(sliced);
      expect_same(full, sliced);
      // The block must actually change the store, or the check is vacuous.
      EXPECT_NE(full.digest(), l.stores[s].digest());
      const auto& slice = routed.slice(s);
      EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
      EXPECT_EQ(std::adjacent_find(slice.begin(), slice.end()), slice.end());
      touched += slice.size();
    }
    // Cross-shard transactions sit in several slices.
    EXPECT_GT(touched, txs.size());
    for (std::size_t i = 0; i < txs.size(); ++i) {
      EXPECT_EQ(routed.ids()[i], txs[i].id());
      EXPECT_EQ(routed.input_shard(i), map->shard(txs[i].spender));
    }
  }
}

TEST(RoutedBlock, SliceApplyMatchesFullApplyUnderIdentityMap) {
  check_property(MapKind::kIdentity, 1);
}

TEST(RoutedBlock, SliceApplyMatchesFullApplyWithoutAttachedMap) {
  check_property(MapKind::kUnattached, 2);
}

TEST(RoutedBlock, SliceApplyMatchesFullApplyUnderRebalancedMap) {
  check_property(MapKind::kRebalanced, 3);
}

TEST(RoutedBlock, ShardOutsideTheMapIsRejected) {
  const RoutedBlock routed({}, ShardMap(kM));
  EXPECT_TRUE(routed.slice(kM - 1).empty());
  EXPECT_THROW(routed.slice(kM), std::out_of_range);
}

}  // namespace
}  // namespace cyc::ledger
