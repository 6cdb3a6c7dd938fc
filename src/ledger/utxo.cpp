#include "ledger/utxo.hpp"

#include <algorithm>

#include "support/serde.hpp"

namespace cyc::ledger {

std::optional<TxOut> UtxoStore::get(const OutPoint& op) const {
  auto it = utxos_.find(op);
  if (it == utxos_.end()) return std::nullopt;
  return it->second;
}

crypto::Digest UtxoStore::entry_digest(const OutPoint& op, const TxOut& out) {
  crypto::Sha256 ctx;
  ctx.update("cyc.utxo.entry");
  ctx.update(BytesView(op.tx.data(), op.tx.size()));
  ctx.update_u64(op.index);
  ctx.update_u64(out.owner.y);
  ctx.update_u64(out.amount);
  return ctx.finalize();
}

void UtxoStore::fold(const crypto::Digest& d) {
  for (std::size_t i = 0; i < acc_.size(); ++i) acc_[i] ^= d[i];
}

bool UtxoStore::add(const OutPoint& op, const TxOut& out) {
  if (owner_shard(out.owner) != shard_) return false;
  auto [it, inserted] = utxos_.try_emplace(op, out);
  if (!inserted) {
    if (it->second == out) return true;  // identical re-insert: no-op
    fold(entry_digest(op, it->second));  // un-fold the replaced entry
    it->second = out;
  }
  fold(entry_digest(op, out));
  return true;
}

bool UtxoStore::spend(const OutPoint& op) {
  auto it = utxos_.find(op);
  if (it == utxos_.end()) return false;
  fold(entry_digest(op, it->second));  // XOR is self-inverse: removes it
  utxos_.erase(it);
  return true;
}

void UtxoStore::apply(const Transaction& tx, const TxId& id) {
  if (owner_shard(tx.spender) == shard_) {
    for (const auto& in : tx.inputs) spend(in);
  }
  for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
    add(OutPoint{id, i}, tx.outputs[i]);
  }
}

Amount UtxoStore::total_value() const {
  Amount total = 0;
  for (const auto& [op, out] : utxos_) total += out.amount;
  return total;
}

std::vector<OutPoint> UtxoStore::outpoints() const {
  std::vector<OutPoint> ops;
  ops.reserve(utxos_.size());
  for (const auto& [op, out] : utxos_) ops.push_back(op);
  std::sort(ops.begin(), ops.end());
  return ops;
}

namespace {
crypto::Digest finish_digest(const crypto::Digest& acc, std::size_t size) {
  crypto::Sha256 ctx;
  ctx.update("cyc.utxo.set");
  ctx.update(BytesView(acc.data(), acc.size()));
  ctx.update_u64(size);
  return ctx.finalize();
}
}  // namespace

crypto::Digest UtxoStore::digest() const {
  return finish_digest(acc_, utxos_.size());
}

crypto::Digest UtxoStore::full_digest() const {
  crypto::Digest acc{};
  for (const auto& [op, out] : utxos_) {
    const crypto::Digest d = entry_digest(op, out);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= d[i];
  }
  return finish_digest(acc, utxos_.size());
}

}  // namespace cyc::ledger
