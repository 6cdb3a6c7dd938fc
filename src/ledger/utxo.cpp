#include "ledger/utxo.hpp"

#include <algorithm>

#include "support/serde.hpp"

namespace cyc::ledger {

const std::shared_ptr<const UtxoStore::Table>& UtxoStore::empty_table() {
  static const auto empty = std::make_shared<const Table>();
  return empty;
}

UtxoStore::UtxoStore(ShardId shard, std::shared_ptr<const ShardMap> map)
    : shard_(shard), map_(std::move(map)), base_(empty_table()) {}

UtxoStore::UtxoStore(ShardId shard, std::shared_ptr<const ShardMap> map,
                     std::vector<std::pair<OutPoint, TxOut>> entries)
    : shard_(shard), map_(std::move(map)) {
  auto table = std::make_shared<Table>();
  table->reserve(entries.size());
  for (const auto& [op, out] : entries) table->insert_or_assign(op, out);
  for (const auto& [op, out] : *table) toggle(entry_digest(op, out));
  size_ = table->size();
  base_ = std::move(table);
}

const TxOut* UtxoStore::find(const OutPoint& op) const {
  if (!delta_.empty()) {
    auto it = delta_.find(op);
    if (it != delta_.end()) return it->second ? &*it->second : nullptr;
  }
  auto it = base_->find(op);
  return it == base_->end() ? nullptr : &it->second;
}

template <class F>
void UtxoStore::for_each(F&& f) const {
  for (const auto& [op, out] : *base_) {
    if (delta_.empty() || !delta_.contains(op)) f(op, out);
  }
  for (const auto& [op, out] : delta_) {
    if (out) f(op, *out);
  }
}

std::optional<TxOut> UtxoStore::get(const OutPoint& op) const {
  const TxOut* out = find(op);
  if (out == nullptr) return std::nullopt;
  return *out;
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

void UtxoStore::toggle(const crypto::Digest& d) {
  for (std::size_t i = 0; i < acc_.size(); ++i) acc_[i] ^= d[i];
}

void UtxoStore::maybe_fold() {
  if (delta_.size() <= kFoldFloor ||
      delta_.size() * kFoldDivisor <= base_->size()) {
    return;
  }
  auto table = std::make_shared<Table>(*base_);
  for (const auto& [op, out] : delta_) {
    if (out) {
      table->insert_or_assign(op, *out);
    } else {
      table->erase(op);
    }
  }
  base_ = std::move(table);
  delta_.clear();
}

bool UtxoStore::add(const OutPoint& op, const TxOut& out) {
  if (owner_shard(out.owner) != shard_) return false;
  if (const TxOut* current = find(op)) {
    if (*current == out) return true;  // identical re-insert: no-op
    toggle(entry_digest(op, *current));  // remove the replaced entry
  } else {
    ++size_;
  }
  toggle(entry_digest(op, out));
  delta_.insert_or_assign(op, out);
  maybe_fold();
  return true;
}

bool UtxoStore::spend(const OutPoint& op) {
  const TxOut* current = find(op);
  if (current == nullptr) return false;
  toggle(entry_digest(op, *current));  // XOR is self-inverse: removes it
  if (base_->contains(op)) {
    delta_.insert_or_assign(op, std::nullopt);  // tombstone the base entry
  } else {
    delta_.erase(op);
  }
  --size_;
  maybe_fold();
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
  for_each([&](const OutPoint&, const TxOut& out) { total += out.amount; });
  return total;
}

std::vector<OutPoint> UtxoStore::outpoints() const {
  std::vector<OutPoint> ops;
  ops.reserve(size_);
  for_each([&](const OutPoint& op, const TxOut&) { ops.push_back(op); });
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

crypto::Digest UtxoStore::digest() const { return finish_digest(acc_, size_); }

crypto::Digest UtxoStore::full_digest() const {
  crypto::Digest acc{};
  std::size_t count = 0;
  for_each([&](const OutPoint& op, const TxOut& out) {
    const crypto::Digest d = entry_digest(op, out);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= d[i];
    ++count;
  });
  return finish_digest(acc, count);
}

}  // namespace cyc::ledger
