#include "ledger/block.hpp"

namespace cyc::ledger {

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
