#include "ledger/utxo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace cyc::ledger {
namespace {

struct Fixture {
  static constexpr std::uint32_t kShards = 4;
  std::shared_ptr<const ShardMap> map =
      std::make_shared<const ShardMap>(kShards);
  std::vector<crypto::KeyPair> users;
  Fixture() {
    for (std::uint64_t i = 0; i < 64; ++i) {
      users.push_back(crypto::KeyPair::from_seed(i + 1000));
    }
  }
  const crypto::KeyPair& in_shard(ShardId s, std::size_t skip = 0) const {
    std::size_t found = 0;
    for (const auto& u : users) {
      if (map->shard(u.pk) == s) {
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

TEST(Utxo, AddGetSpend) {
  Fixture f;
  UtxoStore store(0, f.map);
  const auto& owner = f.in_shard(0);
  EXPECT_TRUE(store.add(op(1), TxOut{owner.pk, 100}));
  EXPECT_TRUE(store.contains(op(1)));
  const auto got = store.get(op(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->amount, 100u);
  EXPECT_TRUE(store.spend(op(1)));
  EXPECT_FALSE(store.contains(op(1)));
  EXPECT_FALSE(store.spend(op(1)));  // already spent
}

TEST(Utxo, RejectsForeignShardOutputs) {
  Fixture f;
  UtxoStore store(0, f.map);
  const auto& foreign = f.in_shard(1);
  EXPECT_FALSE(store.add(op(2), TxOut{foreign.pk, 10}));
  EXPECT_EQ(store.size(), 0u);
}

TEST(Utxo, TotalValue) {
  Fixture f;
  UtxoStore store(2, f.map);
  const auto& owner = f.in_shard(2);
  store.add(op(3), TxOut{owner.pk, 100});
  store.add(op(4), TxOut{owner.pk, 50});
  EXPECT_EQ(store.total_value(), 150u);
}

TEST(Utxo, ApplySpendsAndAdds) {
  Fixture f;
  const auto& alice = f.in_shard(0);
  const auto& bob = f.in_shard(0, 1);
  UtxoStore store(0, f.map);
  store.add(op(5), TxOut{alice.pk, 100});

  Transaction tx;
  tx.spender = alice.pk;
  tx.inputs.push_back(op(5));
  tx.outputs.push_back(TxOut{bob.pk, 90});
  sign_tx(tx, alice.sk);

  store.apply(tx);
  EXPECT_FALSE(store.contains(op(5)));
  EXPECT_TRUE(store.contains(OutPoint{tx.id(), 0}));
  EXPECT_EQ(store.total_value(), 90u);
}

TEST(Utxo, ApplyCrossShardOnlyTouchesOwnSide) {
  Fixture f;
  const auto& alice = f.in_shard(0);
  const auto& carol = f.in_shard(1);
  UtxoStore store0(0, f.map);
  UtxoStore store1(1, f.map);
  store0.add(op(6), TxOut{alice.pk, 100});

  Transaction tx;
  tx.spender = alice.pk;
  tx.inputs.push_back(op(6));
  tx.outputs.push_back(TxOut{carol.pk, 100});
  sign_tx(tx, alice.sk);

  store0.apply(tx);
  store1.apply(tx);
  EXPECT_EQ(store0.size(), 0u);  // input spent, no output belongs here
  EXPECT_EQ(store1.size(), 1u);  // carol's output landed in shard 1
  EXPECT_EQ(store1.total_value(), 100u);
}

TEST(Utxo, DigestReflectsContent) {
  Fixture f;
  const auto& owner = f.in_shard(3);
  UtxoStore a(3, f.map), b(3, f.map);
  EXPECT_EQ(a.digest(), b.digest());
  a.add(op(7), TxOut{owner.pk, 10});
  EXPECT_NE(a.digest(), b.digest());
  b.add(op(7), TxOut{owner.pk, 10});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Utxo, DigestOrderIndependent) {
  Fixture f;
  const auto& owner = f.in_shard(1);
  UtxoStore a(1, f.map), b(1, f.map);
  a.add(op(8), TxOut{owner.pk, 1});
  a.add(op(9), TxOut{owner.pk, 2});
  b.add(op(9), TxOut{owner.pk, 2});
  b.add(op(8), TxOut{owner.pk, 1});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Utxo, OutpointsSorted) {
  Fixture f;
  const auto& owner = f.in_shard(0);
  UtxoStore store(0, f.map);
  for (int i = 20; i > 10; --i) store.add(op(i), TxOut{owner.pk, 1});
  const auto ops = store.outpoints();
  EXPECT_TRUE(std::is_sorted(ops.begin(), ops.end()));
  EXPECT_EQ(ops.size(), 10u);
}


// Copies share an immutable base and keep private deltas: these pin that
// no change made through one store ever shows through another.

// Everything a caller can observe of a store's content.
struct Observed {
  std::size_t size;
  Amount value;
  crypto::Digest digest;
  crypto::Digest full;
  std::vector<OutPoint> ops;
  std::vector<std::optional<TxOut>> values;
  bool operator==(const Observed&) const = default;
};

Observed observe(const UtxoStore& store) {
  Observed o{store.size(),        store.total_value(), store.digest(),
             store.full_digest(), store.outpoints(),   {}};
  for (const OutPoint& p : o.ops) o.values.push_back(store.get(p));
  return o;
}

// A store of shard 0 whose base already holds `count` entries.
UtxoStore seeded_store(const Fixture& f, int count) {
  std::vector<std::pair<OutPoint, TxOut>> entries;
  for (int i = 0; i < count; ++i) {
    entries.emplace_back(op(1000 + i),
                         TxOut{f.in_shard(0, i % 3).pk, 10u + i});
  }
  return UtxoStore(0, f.map, std::move(entries));
}

// Spend `count` entries of the seeded base and add `count` new ones:
// 2 * count delta entries in total.
void churn(UtxoStore& store, const Fixture& f, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    EXPECT_TRUE(store.spend(op(1000 + i)));
    EXPECT_TRUE(store.add(op(5000 + i), TxOut{f.in_shard(0, 1).pk, 7}));
  }
}

TEST(Utxo, BulkBuildMatchesRepeatedAdds) {
  Fixture f;
  const UtxoStore bulk = seeded_store(f, 50);
  UtxoStore added(0, f.map);
  for (int i = 0; i < 50; ++i) {
    added.add(op(1000 + i), TxOut{f.in_shard(0, i % 3).pk, 10u + i});
  }
  EXPECT_EQ(observe(bulk), observe(added));
}

TEST(Utxo, MutatingACopyLeavesTheOriginal) {
  Fixture f;
  UtxoStore original = seeded_store(f, 40);
  const Observed before = observe(original);

  UtxoStore copy = original;
  churn(copy, f, 0, 3);
  EXPECT_TRUE(copy.add(op(1001), TxOut{f.in_shard(0).pk, 99}));  // replace
  EXPECT_EQ(observe(original), before);
  EXPECT_FALSE(original.contains(op(5000)));
  EXPECT_TRUE(original.contains(op(1000)));

  // And the reverse: the copy keeps what it had when the original moves.
  const Observed copy_before = observe(copy);
  EXPECT_TRUE(original.spend(op(1010)));
  EXPECT_TRUE(original.add(op(9000), TxOut{f.in_shard(0).pk, 5}));
  EXPECT_EQ(observe(copy), copy_before);
  EXPECT_FALSE(copy.contains(op(9000)));
}

TEST(Utxo, FoldingACopyLeavesTheOriginal) {
  Fixture f;
  constexpr int kBase = 200;
  // Enough churn to pass the fold bound several times over.
  constexpr int kChurn =
      static_cast<int>(UtxoStore::kFoldFloor + kBase / UtxoStore::kFoldDivisor);
  UtxoStore original = seeded_store(f, kBase);
  EXPECT_TRUE(original.spend(op(1199)));  // a delta entry before the copy
  const Observed before = observe(original);

  UtxoStore copy = original;
  churn(copy, f, 0, kChurn);
  EXPECT_EQ(copy.size(), before.size);
  EXPECT_EQ(copy.digest(), copy.full_digest());
  EXPECT_EQ(observe(original), before);

  // The original folds too; the copy's already-folded base is untouched.
  const Observed copy_before = observe(copy);
  churn(original, f, kChurn, kChurn);
  EXPECT_EQ(observe(copy), copy_before);
  EXPECT_EQ(original.digest(), original.full_digest());
}

TEST(Utxo, CopyOfACopyThenFolded) {
  Fixture f;
  constexpr int kChurn = static_cast<int>(UtxoStore::kFoldFloor) + 10;
  const UtxoStore a = seeded_store(f, 150);
  UtxoStore b = a;
  EXPECT_TRUE(b.spend(op(1149)));
  UtxoStore c = b;
  const Observed a_before = observe(a);
  const Observed b_before = observe(b);

  churn(c, f, 0, kChurn);  // c folds a fresh base of its own
  EXPECT_EQ(observe(a), a_before);
  EXPECT_EQ(observe(b), b_before);
  EXPECT_FALSE(c.contains(op(1149)));
  EXPECT_EQ(c.size(), b.size());
  EXPECT_EQ(c.digest(), c.full_digest());

  // Replaying c's churn on b lands on the same content.
  churn(b, f, 0, kChurn);
  EXPECT_EQ(observe(b), observe(c));
  EXPECT_EQ(observe(a), a_before);
}

}  // namespace
}  // namespace cyc::ledger
