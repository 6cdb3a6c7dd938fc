// Incremental-vs-full UtxoStore digest equivalence.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ledger/utxo.hpp"
#include "support/rng.hpp"

namespace cyc::ledger {
namespace {

constexpr ShardId kShard = 1;
const auto kMap = std::make_shared<const ShardMap>(4);

crypto::PublicKey owner_in_shard(rng::Stream& rng) {
  // Rejection-sample a key whose shard is kShard.
  for (;;) {
    crypto::PublicKey pk{rng.next() % crypto::kP};
    if (pk.y != 0 && kMap->shard(pk) == kShard) return pk;
  }
}

OutPoint op_from(std::uint64_t i) {
  OutPoint op;
  op.tx = crypto::sha256(be64(i));
  op.index = static_cast<std::uint32_t>(i % 3);
  return op;
}

TEST(UtxoDigest, IncrementalMatchesFullRecompute) {
  UtxoStore store(kShard, kMap);
  EXPECT_EQ(store.digest(), store.full_digest());
  rng::Stream rng(42);
  for (std::uint64_t i = 0; i < 32; ++i) {
    store.add(op_from(i), TxOut{owner_in_shard(rng), 10 + i});
    EXPECT_EQ(store.digest(), store.full_digest());
  }
  for (std::uint64_t i = 0; i < 32; i += 2) {
    store.spend(op_from(i));
    EXPECT_EQ(store.digest(), store.full_digest());
  }
}

TEST(UtxoDigest, OrderIndependent) {
  rng::Stream rng(7);
  std::vector<std::pair<OutPoint, TxOut>> entries;
  for (std::uint64_t i = 0; i < 16; ++i) {
    entries.emplace_back(op_from(i), TxOut{owner_in_shard(rng), 100 + i});
  }
  UtxoStore forward(kShard, kMap), backward(kShard, kMap);
  for (const auto& [op, out] : entries) forward.add(op, out);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    backward.add(it->first, it->second);
  }
  EXPECT_EQ(forward.digest(), backward.digest());
}

TEST(UtxoDigest, ContentSensitive) {
  rng::Stream rng(11);
  const auto owner = owner_in_shard(rng);
  UtxoStore a(kShard, kMap), b(kShard, kMap);
  a.add(op_from(1), TxOut{owner, 5});
  b.add(op_from(1), TxOut{owner, 6});  // different amount
  EXPECT_NE(a.digest(), b.digest());

  // Removing the entry restores the empty digest.
  UtxoStore empty(kShard, kMap);
  a.spend(op_from(1));
  EXPECT_EQ(a.digest(), empty.digest());
  // ...but an empty store and a never-touched store agree trivially;
  // size is folded in, so {x} vs {} differ even if the xor accumulator
  // ever collided.
}

TEST(UtxoDigest, OverwriteKeepsAccumulatorCoherent) {
  rng::Stream rng(13);
  const auto owner = owner_in_shard(rng);
  const auto other = owner_in_shard(rng);
  UtxoStore store(kShard, kMap);
  store.add(op_from(2), TxOut{owner, 50});
  store.add(op_from(2), TxOut{other, 70});  // replace same outpoint
  EXPECT_EQ(store.digest(), store.full_digest());

  UtxoStore direct(kShard, kMap);
  direct.add(op_from(2), TxOut{other, 70});
  EXPECT_EQ(store.digest(), direct.digest());

  // Identical re-insert is a no-op.
  const auto before = store.digest();
  store.add(op_from(2), TxOut{other, 70});
  EXPECT_EQ(store.digest(), before);
  EXPECT_EQ(store.digest(), store.full_digest());
}

TEST(UtxoDigest, RandomizedAddSpendSequences) {
  rng::Stream rng(12345);
  for (int trial = 0; trial < 10; ++trial) {
    UtxoStore store(kShard, kMap);
    std::vector<OutPoint> live;
    for (int step = 0; step < 200; ++step) {
      if (live.empty() || rng.chance(0.6)) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(trial) * 1000 + static_cast<std::uint64_t>(step);
        const OutPoint op = op_from(id);
        if (store.add(op, TxOut{owner_in_shard(rng), 1 + rng.below(1000)})) {
          live.push_back(op);
        }
      } else {
        const std::size_t pick = static_cast<std::size_t>(rng.below(live.size()));
        store.spend(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    EXPECT_EQ(store.digest(), store.full_digest())
        << "trial " << trial << " diverged";
  }
}


// The store against a plain ordered map, over long randomized add /
// spend / apply sequences that cross the delta fold bound many times.
// Copies taken along the way must keep the content they were taken at.
TEST(UtxoDigest, RandomizedSequencesMatchAPlainMap) {
  using Reference = std::map<OutPoint, TxOut>;
  auto expect_matches = [](const UtxoStore& store, const Reference& ref,
                           const char* what, int step) {
    ASSERT_EQ(store.digest(), store.full_digest()) << what << " @" << step;
    ASSERT_EQ(store.size(), ref.size()) << what << " @" << step;
    std::vector<OutPoint> ops;
    Amount value = 0;
    for (const auto& [op, out] : ref) {
      ops.push_back(op);
      value += out.amount;
      ASSERT_EQ(store.get(op), out) << what << " @" << step;
    }
    ASSERT_EQ(store.outpoints(), ops) << what << " @" << step;
    ASSERT_EQ(store.total_value(), value) << what << " @" << step;
  };

  rng::Stream rng(2024);
  std::vector<crypto::KeyPair> owners;
  for (std::uint64_t seed = 1; owners.size() < 4; ++seed) {
    auto kp = crypto::KeyPair::from_seed(seed);
    if (kMap->shard(kp.pk) == kShard) owners.push_back(kp);
  }
  std::vector<std::pair<OutPoint, TxOut>> genesis;
  for (std::uint64_t i = 0; i < 300; ++i) {
    genesis.emplace_back(op_from(i), TxOut{owners[i % 4].pk, 50 + i});
  }
  UtxoStore store(kShard, kMap, genesis);
  Reference ref(genesis.begin(), genesis.end());

  std::vector<std::pair<UtxoStore, Reference>> copies;
  std::uint64_t next_id = 10'000;
  for (int step = 0; step < 3000; ++step) {
    const double pick = rng.uniform();
    if (pick < 0.35 || ref.empty()) {
      const OutPoint op = op_from(next_id++);
      const TxOut out{owner_in_shard(rng), 1 + rng.below(1000)};
      ASSERT_TRUE(store.add(op, out));
      ref[op] = out;
    } else if (pick < 0.45) {  // replace a live entry
      auto it = std::next(ref.begin(),
                          static_cast<std::ptrdiff_t>(rng.below(ref.size())));
      it->second.amount += 1;
      ASSERT_TRUE(store.add(it->first, it->second));
    } else if (pick < 0.75) {
      auto it = std::next(ref.begin(),
                          static_cast<std::ptrdiff_t>(rng.below(ref.size())));
      ASSERT_TRUE(store.spend(it->first));
      ref.erase(it);
    } else if (pick < 0.98) {
      // Spend up to two outputs of one owner into two fresh outputs.
      const auto& spender = owners[rng.below(owners.size())];
      Transaction tx;
      tx.spender = spender.pk;
      for (const auto& [op, out] : ref) {
        if (out.owner == spender.pk) tx.inputs.push_back(op);
        if (tx.inputs.size() == 2) break;
      }
      if (tx.inputs.empty()) continue;
      tx.outputs.push_back(TxOut{owners[rng.below(owners.size())].pk, 3});
      tx.outputs.push_back(TxOut{owner_in_shard(rng), 4});
      sign_tx(tx, spender.sk);
      store.apply(tx);
      for (const auto& in : tx.inputs) ref.erase(in);
      const TxId id = tx.id();
      for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
        ref[OutPoint{id, i}] = tx.outputs[i];
      }
    } else {
      copies.emplace_back(store, ref);
    }
    if (step % 97 == 0) expect_matches(store, ref, "store", step);
  }
  expect_matches(store, ref, "store", 3000);
  ASSERT_GT(copies.size(), 20u);
  for (const auto& [copy, copy_ref] : copies) {
    expect_matches(copy, copy_ref, "copy", 3000);
  }
}

}  // namespace
}  // namespace cyc::ledger
