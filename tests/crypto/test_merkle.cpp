#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::crypto {
namespace {

std::vector<Bytes> make_leaves(std::size_t count) {
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < count; ++i) {
    leaves.push_back(concat({bytes_of("leaf"), be64(i)}));
  }
  return leaves;
}

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.leaf_count(), 1u);
  const auto proof = tree.prove(0);
  EXPECT_TRUE(proof.siblings.empty());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[0], proof));
}

TEST(Merkle, EmptyTreeHasSentinelRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.root(), sha256({}));
}

TEST(Merkle, ProofVerifiesForAllLeaves) {
  for (std::size_t count : {2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    const auto leaves = make_leaves(count);
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < count; ++i) {
      const auto proof = tree.prove(i);
      EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], proof))
          << "count=" << count << " leaf=" << i;
    }
  }
}

TEST(Merkle, WrongLeafRejected) {
  const auto leaves = make_leaves(8);
  MerkleTree tree(leaves);
  const auto proof = tree.prove(3);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[4], proof));
  EXPECT_FALSE(MerkleTree::verify(tree.root(), bytes_of("fake"), proof));
}

TEST(Merkle, WrongIndexRejected) {
  const auto leaves = make_leaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.prove(3);
  proof.index = 5;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[3], proof));
}

TEST(Merkle, TamperedSiblingRejected) {
  const auto leaves = make_leaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.prove(2);
  proof.siblings[0][0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], proof));
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(16);
  const Digest root = MerkleTree(leaves).root();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i][0] ^= 1;
    EXPECT_NE(MerkleTree(mutated).root(), root) << "leaf " << i;
  }
}

TEST(Merkle, RootIndependentOfProofQueries) {
  const auto leaves = make_leaves(10);
  MerkleTree tree(leaves);
  const Digest before = tree.root();
  (void)tree.prove(0);
  (void)tree.prove(9);
  EXPECT_EQ(tree.root(), before);
}

TEST(Merkle, ProveOutOfRangeThrows) {
  MerkleTree tree(make_leaves(4));
  EXPECT_THROW(tree.prove(4), std::out_of_range);
}

TEST(Merkle, ProofSerializationRoundTrip) {
  MerkleTree tree(make_leaves(12));
  const auto proof = tree.prove(7);
  const auto back = MerkleProof::deserialize(proof.serialize());
  EXPECT_EQ(back.index, proof.index);
  EXPECT_EQ(back.siblings, proof.siblings);
}

TEST(Merkle, ProofDepthIsLogarithmic) {
  MerkleTree tree(make_leaves(1024));
  EXPECT_EQ(tree.prove(0).siblings.size(), 10u);
}

TEST(Merkle, LeafNodeDomainSeparation) {
  // A single leaf equal to an internal node encoding must not collide:
  // build 2-leaf tree and check that using the root preimage as a leaf
  // gives a different root.
  const auto leaves = make_leaves(2);
  MerkleTree tree(leaves);
  MerkleTree tree2({digest_to_bytes(tree.root())});
  EXPECT_NE(tree.root(), tree2.root());
}

// A forged sibling count must fail as a truncated read, not a huge
// reserve.
TEST(Merkle, ProofForgedCountThrowsOutOfRange) {
  Writer w;
  w.u64(0);
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(MerkleProof::deserialize(w.out()), std::out_of_range);
}

}  // namespace
}  // namespace cyc::crypto
