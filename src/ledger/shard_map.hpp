// Epoch-scoped account→shard mapping (adaptive sharding, §IV-F re-draw).
//
// The seed protocol shards accounts by a static hash (`shard_of`), which
// under Zipf-skewed open-loop traffic pins the hottest shard's mempool at
// capacity while cold shards idle. The ShardMap makes the assignment a
// queryable epoch-scoped object: it answers exactly like `shard_of` until
// a rebalance installs per-account overrides, so threading it through
// routing, validation, and the workload generator is byte-inert while the
// feature is off. Maps are immutable once built — an epoch boundary
// constructs the successor with `apply(moves)` and swaps the shared
// pointer, so concurrent readers (engine shard threads, checker mirror)
// never observe a half-applied re-map.
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
/// key's y coordinate — the same value the static hash shards by, and
/// the canonical account identity everywhere in the ledger layer.
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

  /// True while the map still answers exactly like the static hash.
  bool identity() const { return overrides_.empty(); }

  /// Shard of an account key: the override when one is installed, else
  /// the same hash `shard_of` uses.
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
  std::uint32_t m_ = 1;
  std::uint64_t version_ = 0;
  std::map<std::uint64_t, ShardId> overrides_;
};

/// Map-aware routing: these mirror Transaction::input_shard /
/// output_shards / is_intra_shard but consult the epoch's map, so the
/// engine, validator and checker can never disagree with the generator.
ShardId input_shard(const Transaction& tx, const ShardMap& map);
std::set<ShardId> output_shards(const Transaction& tx, const ShardMap& map);
bool is_intra_shard(const Transaction& tx, const ShardMap& map);

/// Per-shard load statistics accumulated over one epoch's rounds — the
/// planner input. Offered/dropped count arrivals at their (pre-rebalance)
/// home shard; occupancy_sum integrates the post-drain backlog.
struct ShardLoadWindow {
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> offered;
  std::vector<std::uint64_t> dropped;
  std::vector<std::uint64_t> occupancy_sum;
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
