#include "ledger/block.hpp"

#include <gtest/gtest.h>

#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::ledger {
namespace {

Transaction sample_tx(std::uint64_t seed) {
  const auto a = crypto::KeyPair::from_seed(seed);
  const auto b = crypto::KeyPair::from_seed(seed + 1);
  Transaction tx;
  tx.spender = a.pk;
  tx.inputs.push_back(OutPoint{crypto::sha256(be64(seed)), 0});
  tx.outputs.push_back(TxOut{b.pk, seed % 100 + 1});
  sign_tx(tx, a.sk);
  return tx;
}

std::vector<Transaction> sample_txs(std::size_t count, std::uint64_t base) {
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < count; ++i) {
    txs.push_back(sample_tx(base + 2 * i));
  }
  return txs;
}

crypto::Digest rand_of(std::uint64_t n) { return crypto::sha256(be64(n)); }

TEST(Block, BuildCommitsBody) {
  const auto block =
      Block::build(1, rand_of(0), rand_of(1), sample_txs(5, 100));
  EXPECT_EQ(block.header.round, 1u);
  EXPECT_EQ(block.header.tx_count, 5u);
  EXPECT_TRUE(block.body_matches());
}

TEST(Block, BodyTamperDetected) {
  auto block = Block::build(1, rand_of(0), rand_of(1), sample_txs(5, 200));
  block.txs[2].outputs[0].amount += 1;
  EXPECT_FALSE(block.body_matches());
  block = Block::build(1, rand_of(0), rand_of(1), sample_txs(5, 200));
  block.txs.pop_back();
  EXPECT_FALSE(block.body_matches());
}

TEST(Block, HeaderHashChangesWithAnyField) {
  BlockHeader h;
  h.round = 3;
  h.prev_hash = rand_of(2);
  h.body_root = rand_of(3);
  h.randomness = rand_of(4);
  h.tx_count = 7;
  const auto base = h.hash();
  auto mutate = h;
  mutate.round = 4;
  EXPECT_NE(mutate.hash(), base);
  mutate = h;
  mutate.prev_hash = rand_of(5);
  EXPECT_NE(mutate.hash(), base);
  mutate = h;
  mutate.tx_count = 8;
  EXPECT_NE(mutate.hash(), base);
}

TEST(Block, InclusionProofs) {
  const auto block =
      Block::build(1, rand_of(0), rand_of(1), sample_txs(9, 300));
  for (std::size_t i = 0; i < block.txs.size(); ++i) {
    const auto proof = block.prove_inclusion(i);
    EXPECT_TRUE(Block::verify_inclusion(block.header, block.txs[i], proof));
  }
  // Foreign transaction does not verify.
  const auto proof = block.prove_inclusion(0);
  EXPECT_FALSE(Block::verify_inclusion(block.header, sample_tx(999), proof));
}

TEST(Block, SerializationRoundTrip) {
  const auto block =
      Block::build(2, rand_of(7), rand_of(8), sample_txs(4, 400));
  const auto back = Block::deserialize(block.serialize());
  EXPECT_EQ(back.header, block.header);
  EXPECT_EQ(back.txs, block.txs);
  EXPECT_TRUE(back.body_matches());
}

TEST(Chain, GenesisState) {
  Chain chain;
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.genesis().round, 0u);
  EXPECT_TRUE(chain.validate());
}

TEST(Chain, AppendLinkedBlocks) {
  Chain chain;
  for (std::uint64_t r = 1; r <= 5; ++r) {
    const auto block = Block::build(r, chain.tip().hash(), rand_of(r),
                                    sample_txs(3, 500 + 10 * r));
    EXPECT_TRUE(chain.append(block)) << "round " << r;
  }
  EXPECT_EQ(chain.height(), 5u);
  EXPECT_TRUE(chain.validate());
  EXPECT_EQ(chain.tip().round, 5u);
}

TEST(Chain, RejectsWrongRound) {
  Chain chain;
  const auto block =
      Block::build(2, chain.tip().hash(), rand_of(1), sample_txs(1, 600));
  EXPECT_FALSE(chain.append(block));  // round must be 1
  EXPECT_EQ(chain.height(), 0u);
}

TEST(Chain, RejectsBrokenLink) {
  Chain chain;
  const auto block = Block::build(1, rand_of(99) /* wrong prev */, rand_of(1),
                                  sample_txs(1, 700));
  EXPECT_FALSE(chain.append(block));
}

TEST(Chain, RejectsBodyMismatch) {
  Chain chain;
  auto block =
      Block::build(1, chain.tip().hash(), rand_of(1), sample_txs(3, 800));
  block.txs[0].outputs[0].amount += 1;  // header no longer matches
  EXPECT_FALSE(chain.append(block));
}

TEST(Chain, EmptyBlocksAllowed) {
  Chain chain;
  const auto block = Block::build(1, chain.tip().hash(), rand_of(1), {});
  EXPECT_TRUE(chain.append(block));
  EXPECT_TRUE(chain.validate());
}

TEST(Chain, HeaderAtIndexing) {
  Chain chain;
  const auto b1 =
      Block::build(1, chain.tip().hash(), rand_of(1), sample_txs(1, 900));
  chain.append(b1);
  EXPECT_EQ(chain.header_at(0).round, 0u);
  EXPECT_EQ(chain.header_at(1).round, 1u);
  EXPECT_THROW(chain.header_at(2), std::out_of_range);
}

// A forged tx count must fail as a truncated read, not a huge reserve.
TEST(Block, ForgedTxCountThrowsOutOfRange) {
  Writer w;
  w.bytes(BlockHeader{}.serialize());
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(Block::deserialize(w.out()), std::out_of_range);
}

}  // namespace
}  // namespace cyc::ledger
