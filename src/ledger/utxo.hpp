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
// Representation: an immutable base table shared by every copy, plus a
// private delta of entries added or replaced since the base was built and
// tombstones for base entries spent since. A copy shares the base and
// copies only the delta, so the engine's per-round snapshot and each
// member view's successor cost the changes since the last fold, not what
// the shard holds. Once the delta outgrows 1/kFoldDivisor of the base,
// the store folds it into a fresh base of its own; no other copy sees
// the change.
//
// A store always holds the epoch's `ShardMap`: it decides which owners
// belong here. Rebalancing swaps the map (`attach_map`) while migrating
// the re-homed entries (`migrate_stores`).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ledger/shard_map.hpp"
#include "ledger/types.hpp"

namespace cyc::ledger {

class UtxoStore {
 public:
  /// The delta is folded into a fresh base once it holds more than
  /// 1/kFoldDivisor of the base's entries: a copy then costs at most an
  /// eighth of a full table, while a fold (O(base)) comes at most once per
  /// base/8 changes. kFoldFloor keeps a small store from rebuilding its
  /// base on nearly every change.
  static constexpr std::size_t kFoldDivisor = 8;
  static constexpr std::size_t kFoldFloor = 64;

  /// The empty store of `shard` under `map` (non-null).
  UtxoStore(ShardId shard, std::shared_ptr<const ShardMap> map);

  /// The store of `shard` holding `entries`, built in one pass. Skips the
  /// per-entry membership check of add(): every owner must map to `shard`
  /// under `map`. A repeated outpoint keeps its last value, as repeated
  /// add() calls would.
  UtxoStore(ShardId shard, std::shared_ptr<const ShardMap> map,
            std::vector<std::pair<OutPoint, TxOut>> entries);

  ShardId shard() const { return shard_; }
  std::size_t size() const { return size_; }

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
  bool contains(const OutPoint& op) const { return find(op) != nullptr; }

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
  using Table = std::unordered_map<OutPoint, TxOut, OutPointHash>;
  /// A delta entry: the current value, or nullopt for a spent base entry.
  using Delta =
      std::unordered_map<OutPoint, std::optional<TxOut>, OutPointHash>;

  /// The base of every store created empty (a base is never written to).
  static const std::shared_ptr<const Table>& empty_table();
  /// Per-entry digest XORed into the accumulator.
  static crypto::Digest entry_digest(const OutPoint& op, const TxOut& out);
  /// XOR an entry digest into the accumulator: adds or removes the entry.
  void toggle(const crypto::Digest& d);
  /// The current value at `op`, or nullptr.
  const TxOut* find(const OutPoint& op) const;
  /// Fold the delta into a fresh base when it has grown past the bound.
  void maybe_fold();
  /// Call f(op, out) for every current entry, in no particular order.
  template <class F>
  void for_each(F&& f) const;

  ShardId shard_ = 0;
  std::shared_ptr<const ShardMap> map_;
  std::shared_ptr<const Table> base_;  ///< immutable, shared by copies
  Delta delta_;                        ///< private to this store
  std::size_t size_ = 0;               ///< current entry count
  crypto::Digest acc_{};  ///< XOR of entry digests of the current content
};

}  // namespace cyc::ledger
