#include "ledger/routed_block.hpp"

#include "ledger/utxo.hpp"

namespace cyc::ledger {

RoutedBlock::RoutedBlock(std::vector<Transaction> txs, const ShardMap& map)
    : txs_(std::move(txs)), slices_(map.shards()) {
  ids_.reserve(txs_.size());
  input_shard_.reserve(txs_.size());
  for (std::uint32_t i = 0; i < txs_.size(); ++i) {
    const Transaction& tx = txs_[i];
    ids_.push_back(tx.id());
    input_shard_.push_back(map.shard(tx.spender));
    // Slices are filled in tx order, so "already listed" is a back()
    // check and every slice stays ascending.
    auto touch = [&](ShardId s) {
      auto& slice = slices_[s];
      if (slice.empty() || slice.back() != i) slice.push_back(i);
    };
    touch(input_shard_.back());
    for (const TxOut& out : tx.outputs) touch(map.shard(out.owner));
  }
}

void RoutedBlock::apply_to(UtxoStore& store) const {
  for (std::uint32_t i : slice(store.shard())) store.apply(txs_[i], ids_[i]);
}

}  // namespace cyc::ledger
