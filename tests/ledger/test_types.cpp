#include "ledger/types.hpp"

#include <gtest/gtest.h>

#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::ledger {
namespace {

crypto::KeyPair user(std::uint64_t seed) {
  return crypto::KeyPair::from_seed(seed);
}

Transaction simple_tx(const crypto::KeyPair& from, const crypto::KeyPair& to,
                      Amount amount) {
  Transaction tx;
  tx.spender = from.pk;
  tx.inputs.push_back(OutPoint{crypto::sha256(bytes_of("prev")), 0});
  tx.outputs.push_back(TxOut{to.pk, amount});
  sign_tx(tx, from.sk);
  return tx;
}

TEST(TxTypes, ShardOfIsStable) {
  const auto u = user(1);
  EXPECT_EQ(shard_of(u.pk, 8), shard_of(u.pk, 8));
  EXPECT_LT(shard_of(u.pk, 8), 8u);
}

TEST(TxTypes, ShardDistributionRoughlyUniform) {
  const std::uint32_t m = 4;
  std::vector<int> counts(m, 0);
  for (std::uint64_t i = 0; i < 400; ++i) {
    counts[shard_of(user(i + 100).pk, m)] += 1;
  }
  for (int c : counts) {
    EXPECT_GT(c, 60);
    EXPECT_LT(c, 140);
  }
}

TEST(TxTypes, SerializationRoundTrip) {
  const auto a = user(2), b = user(3);
  Transaction tx = simple_tx(a, b, 50);
  tx.outputs.push_back(TxOut{a.pk, 25});
  sign_tx(tx, a.sk);
  const Transaction back = Transaction::deserialize(tx.serialize());
  EXPECT_EQ(back, tx);
  EXPECT_EQ(back.id(), tx.id());
}

TEST(TxTypes, IdChangesWithContent) {
  const auto a = user(4), b = user(5);
  const Transaction tx1 = simple_tx(a, b, 50);
  const Transaction tx2 = simple_tx(a, b, 51);
  EXPECT_NE(tx1.id(), tx2.id());
}

TEST(TxTypes, IdIndependentOfSignature) {
  // The id covers the body; re-signing does not change it.
  const auto a = user(6), b = user(7);
  Transaction tx = simple_tx(a, b, 10);
  const TxId id = tx.id();
  tx.sig = crypto::Signature{};  // strip signature
  EXPECT_EQ(tx.id(), id);
}

TEST(TxTypes, SignatureVerifies) {
  const auto a = user(8), b = user(9);
  Transaction tx = simple_tx(a, b, 5);
  EXPECT_TRUE(check_tx_signature(tx));
  tx.outputs[0].amount = 6;  // tamper after signing
  EXPECT_FALSE(check_tx_signature(tx));
}

TEST(TxTypes, WrongSignerFails) {
  const auto a = user(10), b = user(11);
  Transaction tx;
  tx.spender = a.pk;
  tx.inputs.push_back(OutPoint{crypto::sha256(bytes_of("p")), 0});
  tx.outputs.push_back(TxOut{b.pk, 1});
  sign_tx(tx, b.sk);  // signed by the wrong key
  EXPECT_FALSE(check_tx_signature(tx));
}

TEST(TxTypes, IntraVsCrossShard) {
  const std::uint32_t m = 4;
  // Find two users in the same shard and one in a different shard.
  std::vector<crypto::KeyPair> users;
  for (std::uint64_t i = 0; i < 64; ++i) users.push_back(user(i + 200));
  const ShardId home = shard_of(users[0].pk, m);
  const crypto::KeyPair* same = nullptr;
  const crypto::KeyPair* other = nullptr;
  for (std::size_t i = 1; i < users.size(); ++i) {
    if (shard_of(users[i].pk, m) == home && !same) same = &users[i];
    if (shard_of(users[i].pk, m) != home && !other) other = &users[i];
  }
  ASSERT_NE(same, nullptr);
  ASSERT_NE(other, nullptr);

  const Transaction intra = simple_tx(users[0], *same, 5);
  EXPECT_TRUE(intra.is_intra_shard(m));
  EXPECT_EQ(intra.input_shard(m), home);
  EXPECT_EQ(intra.output_shards(m), std::set<ShardId>{home});

  const Transaction cross = simple_tx(users[0], *other, 5);
  EXPECT_FALSE(cross.is_intra_shard(m));
  EXPECT_EQ(cross.output_shards(m),
            std::set<ShardId>{shard_of(other->pk, m)});
}

TEST(TxTypes, OutPointOrdering) {
  OutPoint a{crypto::sha256(bytes_of("a")), 0};
  OutPoint b = a;
  b.index = 1;
  EXPECT_LT(a, b);
  EXPECT_EQ(a, a);
  OutPointHash h;
  EXPECT_NE(h(a), h(b));
}

// Forged input / output counts must fail as truncated reads, not as
// huge reserves.
TEST(TxTypes, TransactionForgedInputCountThrowsOutOfRange) {
  Writer body;
  body.u32(0xFFFFFFFFu);
  Writer w;
  w.bytes(body.out());
  EXPECT_THROW(Transaction::deserialize(w.out()), std::out_of_range);
}

TEST(TxTypes, TransactionForgedOutputCountThrowsOutOfRange) {
  Writer body;
  body.u32(0);
  body.u32(0xFFFFFFFFu);
  Writer w;
  w.bytes(body.out());
  EXPECT_THROW(Transaction::deserialize(w.out()), std::out_of_range);
}

}  // namespace
}  // namespace cyc::ledger
