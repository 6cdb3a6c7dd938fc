// A block decoded and routed once, applied per shard (§IV-G).
//
// After B^r is released, each committee deletes the spent outputs and
// appends the new outputs that belong to *its* shard. A transaction whose
// spender and outputs all live elsewhere is a no-op for a shard's store,
// so a store only needs to walk the transactions that touch it. The
// RoutedBlock computes every transaction id and every owner-shard lookup
// once, keeps a per-shard list of the transactions touching that shard
// (in block order), and applies a store by walking only its slice — the
// result is identical to calling UtxoStore::apply on every transaction.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger/shard_map.hpp"
#include "ledger/types.hpp"

namespace cyc::ledger {

class UtxoStore;

class RoutedBlock {
 public:
  /// Route `txs` under `map`: slice s lists, in block order, every tx
  /// whose spender or any output owner maps to shard s.
  RoutedBlock(std::vector<Transaction> txs, const ShardMap& map);

  const std::vector<Transaction>& txs() const { return txs_; }
  const std::vector<TxId>& ids() const { return ids_; }
  /// Shard of tx i's spender (where its inputs live).
  ShardId input_shard(std::size_t i) const { return input_shard_[i]; }
  /// Indices of the txs touching `shard`, ascending. Throws
  /// std::out_of_range for a shard outside the routing map.
  const std::vector<std::uint32_t>& slice(ShardId shard) const {
    return slices_.at(shard);
  }

  /// Apply the block to `store` by walking only its shard's slice. The
  /// store must route owners by the map this block was routed with (the
  /// engine attaches the epoch map to every store and view).
  void apply_to(UtxoStore& store) const;

 private:
  std::vector<Transaction> txs_;
  std::vector<TxId> ids_;
  std::vector<ShardId> input_shard_;
  std::vector<std::vector<std::uint32_t>> slices_;
};

}  // namespace cyc::ledger
