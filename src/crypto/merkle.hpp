// Binary Merkle tree with domain-separated leaf/node hashing.
//
// Used for block bodies (§IV-G): the referee committee commits to the set
// of packed TXdecSETs, and committee members verify inclusion of their
// shard's transactions without storing the whole block body (the O(c)
// storage row of Table II).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.hpp"
#include "support/bytes.hpp"
#include "support/serde.hpp"

namespace cyc::crypto {

struct MerkleProof {
  std::uint64_t index = 0;          ///< leaf position
  std::vector<Digest> siblings;     ///< bottom-up sibling hashes

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.index, s.siblings); }
  Bytes serialize() const { return encode(*this); }
  static MerkleProof deserialize(BytesView b) { return decode<MerkleProof>(b); }
};

class MerkleTree {
 public:
  /// Build a tree over the given leaf payloads. An empty leaf set yields
  /// the hash of the empty string as root (a defined sentinel).
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  Digest root() const;
  std::size_t leaf_count() const { return leaf_count_; }

  /// Inclusion proof for leaf `index`. Throws std::out_of_range if the
  /// index is beyond the leaf count.
  MerkleProof prove(std::uint64_t index) const;

  /// Verify that `leaf` is at `proof.index` under `root`.
  static bool verify(const Digest& root, BytesView leaf,
                     const MerkleProof& proof);

 private:
  std::size_t leaf_count_;
  std::vector<std::vector<Digest>> levels_;  ///< levels_[0] = leaf hashes
};

}  // namespace cyc::crypto
