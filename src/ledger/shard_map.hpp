// Epoch-scoped account→shard mapping (adaptive sharding, §IV-F re-draw).
//
// The ShardMap is the one authority that maps an account to a shard: the
// engine, every UTXO store, the validator, the workload generator and
// the invariant checker all ask it. Without overrides it answers with the
// static hash of §III, SHA-256 over a domain tag and the key y, mod m (its
// one implementation is `hashed_shard`); a rebalance installs
// per-account overrides so hot accounts under Zipf-skewed open-loop
// traffic stop pinning one shard's mempool at capacity. Maps are
// immutable once built — an epoch boundary constructs the successor with
// `apply(moves)` and swaps the shared pointer, so concurrent readers
// (engine shard threads, checker mirror) never observe a half-applied
// re-map.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ledger/types.hpp"

namespace cyc::ledger {

class UtxoStore;

/// One account migration in a rebalance plan. `account` is the public
/// key's y coordinate — the value the hash shards by, and the canonical
/// account identity everywhere in the ledger layer.
struct AccountMove {
  std::uint64_t account = 0;
  ShardId from = 0;
  ShardId to = 0;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.account, s.from, s.to); }
  bool operator==(const AccountMove&) const = default;
};

class ShardMap {
 public:
  ShardMap() = default;
  explicit ShardMap(std::uint32_t m) : m_(m) {}

  std::uint32_t shards() const { return m_; }

  /// Number of rebalances applied since the identity map of the genesis
  /// epoch (0 = never rebalanced).
  std::uint64_t version() const { return version_; }

  /// True while the map answers with the hash alone (no overrides).
  bool identity() const { return overrides_.empty(); }

  /// Shard of an account key: the override when one is installed, else
  /// the static hash.
  ShardId shard_key(std::uint64_t account) const;
  ShardId shard(const crypto::PublicKey& pk) const { return shard_key(pk.y); }

  const std::map<std::uint64_t, ShardId>& overrides() const {
    return overrides_;
  }

  /// Successor map with `moves` applied and the version bumped. Overrides
  /// that land back on the hash-default shard are erased, so the stored
  /// override set is canonical and the digest depends only on effective
  /// assignments. Throws std::invalid_argument on an out-of-range target.
  ShardMap apply(const std::vector<AccountMove>& moves) const;

  /// Canonical content digest over (m, version, sorted overrides).
  crypto::Digest digest() const;

  bool operator==(const ShardMap&) const = default;

 private:
  /// The static hash: every account's shard absent an override.
  ShardId hashed_shard(std::uint64_t account) const;

  std::uint32_t m_ = 1;
  std::uint64_t version_ = 0;
  std::map<std::uint64_t, ShardId> overrides_;
};

/// Transaction routing under the epoch's map — the only routing API, so
/// the engine, validator and checker can never disagree with the
/// generator.
ShardId input_shard(const Transaction& tx, const ShardMap& map);
std::set<ShardId> output_shards(const Transaction& tx, const ShardMap& map);
bool is_intra_shard(const Transaction& tx, const ShardMap& map);

/// Per-shard load statistics accumulated over one epoch's rounds — the
/// planner input. `offered` counts arrivals at their (pre-rebalance)
/// home shard.
struct ShardLoadWindow {
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> offered;
  /// Arrivals per spender account key — ranks the hot accounts.
  std::map<std::uint64_t, std::uint64_t> account_arrivals;

  bool empty() const { return rounds == 0; }
};

/// Move every UTXO owned by a re-homed account from its old store to its
/// new one and attach `next` to all stores. The source shard of each
/// entry is derived from `old_map` (never trusted from the move record);
/// spend/add keep the rolling digests self-consistent. Returns the number
/// of migrated outputs. Deterministic: moves and store entries are
/// processed in sorted order.
std::uint64_t migrate_stores(std::vector<UtxoStore>& stores,
                             const ShardMap& old_map,
                             const std::shared_ptr<const ShardMap>& next,
                             const std::vector<AccountMove>& moves);

}  // namespace cyc::ledger
