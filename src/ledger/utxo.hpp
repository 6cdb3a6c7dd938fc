// Per-shard UTXO store.
//
// Each committee maintains the UTXO set of the shard it is responsible
// for (§III-D); after a block is released, members delete spent outputs
// and append the newly created outputs belonging to their shard (§IV-G).
//
// The store keeps a *rolling* content digest: an XOR-combined multiset
// hash over per-entry digests, folded into the final digest together
// with the entry count. XOR is commutative and self-inverse, so add /
// spend update the accumulator in O(1) and the digest is independent of
// insertion order — exactly the set semantics the end-of-round UTXO list
// consensus needs. `full_digest()` recomputes the same value from
// scratch and stays as the debug cross-check.
//
// A store always holds the epoch's `ShardMap`: it decides which owners
// belong here. Rebalancing swaps the map (`attach_map`) while migrating
// the re-homed entries (`migrate_stores`).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger/shard_map.hpp"
#include "ledger/types.hpp"

namespace cyc::ledger {

class UtxoStore {
 public:
  /// The store of `shard` under `map` (non-null).
  UtxoStore(ShardId shard, std::shared_ptr<const ShardMap> map)
      : shard_(shard), map_(std::move(map)) {}

  ShardId shard() const { return shard_; }
  std::size_t size() const { return utxos_.size(); }

  /// Swap in the successor epoch's map (non-null): membership checks in
  /// add() and apply() consult it from now on.
  void attach_map(std::shared_ptr<const ShardMap> map) {
    map_ = std::move(map);
  }
  const std::shared_ptr<const ShardMap>& shard_map() const { return map_; }

  /// Home shard of an owner under the attached map.
  ShardId owner_shard(const crypto::PublicKey& pk) const {
    return map_->shard(pk);
  }

  /// Look up an unspent output.
  std::optional<TxOut> get(const OutPoint& op) const;
  bool contains(const OutPoint& op) const { return utxos_.count(op) > 0; }

  /// Insert an output. Outputs whose owner is outside this store's shard
  /// are rejected (returns false) — a store only tracks its own shard.
  bool add(const OutPoint& op, const TxOut& out);

  /// Remove a spent output; returns false if it was not present.
  bool spend(const OutPoint& op);

  /// Apply a verified transaction: spend its inputs that live here and
  /// add its outputs that belong to this shard.
  void apply(const Transaction& tx) { apply(tx, tx.id()); }
  /// Same, with the transaction id already computed (`id == tx.id()`).
  void apply(const Transaction& tx, const TxId& id);

  /// Total value stored.
  Amount total_value() const;

  /// Snapshot of all outpoints (deterministically ordered).
  std::vector<OutPoint> outpoints() const;

  /// Digest of the full store content — used for the end-of-round UTXO
  /// list consensus (§IV-G hand-off to the next partial set). O(1): reads
  /// the incrementally maintained accumulator.
  crypto::Digest digest() const;

  /// Recompute the digest from scratch (O(n)) — debug cross-check for the
  /// incremental accumulator; tests assert full_digest() == digest().
  crypto::Digest full_digest() const;

 private:
  /// Per-entry digest folded into the accumulator.
  static crypto::Digest entry_digest(const OutPoint& op, const TxOut& out);
  void fold(const crypto::Digest& d);  // XOR into the accumulator

  ShardId shard_ = 0;
  std::shared_ptr<const ShardMap> map_;
  std::unordered_map<OutPoint, TxOut, OutPointHash> utxos_;
  crypto::Digest acc_{};  ///< XOR of entry digests of the current content
};

}  // namespace cyc::ledger
