#include "ledger/block.hpp"

#include "support/serde.hpp"

namespace cyc::ledger {

Bytes BlockHeader::serialize() const {
  Writer w;
  w.u64(round);
  w.bytes(crypto::digest_to_bytes(prev_hash));
  w.bytes(crypto::digest_to_bytes(body_root));
  w.bytes(crypto::digest_to_bytes(randomness));
  w.u32(tx_count);
  return w.take();
}

BlockHeader BlockHeader::deserialize(BytesView b) {
  Reader rd(b);
  BlockHeader h;
  h.round = rd.u64();
  h.prev_hash = crypto::digest_from_bytes(rd.bytes());
  h.body_root = crypto::digest_from_bytes(rd.bytes());
  h.randomness = crypto::digest_from_bytes(rd.bytes());
  h.tx_count = rd.u32();
  return h;
}

crypto::Digest BlockHeader::hash() const {
  return crypto::sha256_concat({bytes_of("cyc.blockheader"), serialize()});
}

namespace {
std::vector<Bytes> tx_leaves(const std::vector<Transaction>& txs) {
  std::vector<Bytes> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.serialize());
  return leaves;
}
}  // namespace

Block Block::build(std::uint64_t round, const crypto::Digest& prev_hash,
                   const crypto::Digest& randomness,
                   std::vector<Transaction> txs) {
  Block block;
  block.txs = std::move(txs);
  block.header.round = round;
  block.header.prev_hash = prev_hash;
  block.header.randomness = randomness;
  block.header.tx_count = static_cast<std::uint32_t>(block.txs.size());
  block.header.body_root = crypto::MerkleTree(tx_leaves(block.txs)).root();
  return block;
}

bool Block::body_matches() const {
  if (header.tx_count != txs.size()) return false;
  return crypto::MerkleTree(tx_leaves(txs)).root() == header.body_root;
}

crypto::MerkleProof Block::prove_inclusion(std::size_t index) const {
  return crypto::MerkleTree(tx_leaves(txs)).prove(index);
}

bool Block::verify_inclusion(const BlockHeader& header, const Transaction& tx,
                             const crypto::MerkleProof& proof) {
  return crypto::MerkleTree::verify(header.body_root, tx.serialize(), proof);
}

Bytes Block::serialize() const {
  Writer w;
  w.bytes(header.serialize());
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const auto& tx : txs) w.bytes(tx.serialize());
  return w.take();
}

Block Block::deserialize(BytesView b) {
  Reader rd(b);
  Block block;
  block.header = BlockHeader::deserialize(rd.bytes());
  const std::uint32_t count = rd.u32();
  block.txs.reserve(rd.reservable(count, Transaction::kMinWireBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    block.txs.push_back(Transaction::deserialize(rd.bytes()));
  }
  return block;
}

Chain::Chain() {
  BlockHeader genesis;
  genesis.round = 0;
  genesis.body_root = crypto::sha256(bytes_of("cyc.genesis.body"));
  genesis.randomness = crypto::sha256(bytes_of("cyc.genesis.rand"));
  headers_.push_back(genesis);
}

bool Chain::append(const Block& block) {
  if (block.header.round != tip().round + 1) return false;
  if (block.header.prev_hash != tip().hash()) return false;
  if (!block.body_matches()) return false;
  headers_.push_back(block.header);
  return true;
}

bool Chain::validate() const {
  for (std::size_t i = 1; i < headers_.size(); ++i) {
    if (headers_[i].round != headers_[i - 1].round + 1) return false;
    if (headers_[i].prev_hash != headers_[i - 1].hash()) return false;
  }
  return true;
}

}  // namespace cyc::ledger
