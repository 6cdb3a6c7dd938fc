// Blocks and the block chain (§IV-G).
//
// Each round r produces a block B^r containing the committed
// transactions, the next round's randomness, and (abstractly) the next
// round's participants and roles. Headers chain by hash; the body is
// committed by a Merkle root so light verification of any transaction's
// inclusion needs O(log |txs|) hashes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "ledger/types.hpp"
#include "support/serde.hpp"

namespace cyc::ledger {

struct BlockHeader {
  std::uint64_t round = 0;
  crypto::Digest prev_hash{};   ///< hash of B^{r-1}'s header
  crypto::Digest body_root{};   ///< Merkle root over serialized txs
  crypto::Digest randomness{};  ///< R^{r+1} carried in the block
  std::uint32_t tx_count = 0;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.round, s.prev_hash, s.body_root, s.randomness, s.tx_count);
  }
  Bytes serialize() const { return encode(*this); }
  static BlockHeader deserialize(BytesView b) { return decode<BlockHeader>(b); }

  /// Header hash (chains the blocks).
  crypto::Digest hash() const;

  bool operator==(const BlockHeader&) const = default;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> txs;

  /// Build a block over `txs`, linking to `prev`.
  static Block build(std::uint64_t round, const crypto::Digest& prev_hash,
                     const crypto::Digest& randomness,
                     std::vector<Transaction> txs);

  /// True iff the header commits to exactly this body.
  bool body_matches() const;

  /// Inclusion proof for the tx at `index`.
  crypto::MerkleProof prove_inclusion(std::size_t index) const;

  /// Verify a tx's inclusion under a (trusted) header.
  static bool verify_inclusion(const BlockHeader& header,
                               const Transaction& tx,
                               const crypto::MerkleProof& proof);

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(nested(s.header), s.txs); }
  Bytes serialize() const { return encode(*this); }
  static Block deserialize(BytesView b) { return decode<Block>(b); }
};

/// An append-only, linkage-checked chain of blocks.
class Chain {
 public:
  Chain();

  /// The fixed genesis header (round 0, all-zero links).
  const BlockHeader& genesis() const { return headers_.front(); }

  /// Number of blocks after genesis.
  std::size_t height() const { return headers_.size() - 1; }

  const BlockHeader& tip() const { return headers_.back(); }
  const BlockHeader& header_at(std::size_t height) const {
    return headers_.at(height);
  }

  /// Append a block; rejects (returns false) on wrong round, broken
  /// prev-hash link or a body/header mismatch.
  bool append(const Block& block);

  /// Re-validate the whole header chain (linkage + round numbering).
  bool validate() const;

 private:
  std::vector<BlockHeader> headers_;
};

}  // namespace cyc::ledger
