// Incremental-vs-full UtxoStore digest equivalence.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cyc::ledger
