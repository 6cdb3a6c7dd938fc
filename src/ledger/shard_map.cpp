#include "ledger/shard_map.hpp"

#include <algorithm>
#include <stdexcept>

#include "ledger/utxo.hpp"
#include "support/serde.hpp"

namespace cyc::ledger {

ShardId ShardMap::shard_key(std::uint64_t account) const {
  auto it = overrides_.find(account);
  if (it != overrides_.end()) return it->second;
  return hashed_shard(account);
}

ShardId ShardMap::hashed_shard(std::uint64_t account) const {
  const crypto::Digest d =
      crypto::sha256_concat({bytes_of("cyc.shard"), be64(account)});
  return static_cast<ShardId>(crypto::digest_prefix_u64(d) % m_);
}

ShardMap ShardMap::apply(const std::vector<AccountMove>& moves) const {
  ShardMap next = *this;
  next.version_ += 1;
  for (const auto& mv : moves) {
    if (mv.to >= m_) {
      throw std::invalid_argument("shard_map: move target out of range");
    }
    // Canonical form: an override equal to the hash default is no
    // override at all.
    if (hashed_shard(mv.account) == mv.to) {
      next.overrides_.erase(mv.account);
    } else {
      next.overrides_[mv.account] = mv.to;
    }
  }
  return next;
}

crypto::Digest ShardMap::digest() const {
  crypto::Sha256 ctx;
  ctx.update("cyc.shard.map");
  ctx.update_u64(m_);
  ctx.update_u64(version_);
  ctx.update_u64(overrides_.size());
  for (const auto& [account, shard] : overrides_) {  // std::map: sorted
    ctx.update_u64(account);
    ctx.update_u64(shard);
  }
  return ctx.finalize();
}

ShardId input_shard(const Transaction& tx, const ShardMap& map) {
  return map.shard(tx.spender);
}

std::set<ShardId> output_shards(const Transaction& tx, const ShardMap& map) {
  std::set<ShardId> shards;
  for (const auto& out : tx.outputs) shards.insert(map.shard(out.owner));
  return shards;
}

bool is_intra_shard(const Transaction& tx, const ShardMap& map) {
  const ShardId in = input_shard(tx, map);
  for (const auto& out : tx.outputs) {
    if (map.shard(out.owner) != in) return false;
  }
  return true;
}

std::uint64_t migrate_stores(std::vector<UtxoStore>& stores,
                             const ShardMap& old_map,
                             const std::shared_ptr<const ShardMap>& next,
                             const std::vector<AccountMove>& moves) {
  // Effective re-homes only: (account -> new shard) where old != new.
  std::map<std::uint64_t, ShardId> rehomed;
  for (const auto& mv : moves) {
    const ShardId before = old_map.shard_key(mv.account);
    const ShardId after = next->shard_key(mv.account);
    if (before != after) rehomed[mv.account] = after;
  }

  // Collect and remove migrating entries under the old map, keyed by
  // sorted outpoints so the spend order (and hence any failure mode) is
  // deterministic.
  struct Migrating {
    OutPoint op;
    TxOut out;
    ShardId to = 0;
  };
  std::vector<Migrating> migrating;
  for (auto& store : stores) {
    for (const OutPoint& op : store.outpoints()) {
      const auto out = store.get(op);
      auto it = rehomed.find(out->owner.y);
      if (it == rehomed.end()) continue;
      if (old_map.shard_key(out->owner.y) != store.shard()) continue;
      migrating.push_back(Migrating{op, *out, it->second});
      store.spend(op);
    }
  }

  // Swap every store onto the successor map, then re-insert each entry
  // at its new home.
  for (auto& store : stores) store.attach_map(next);
  for (const auto& entry : migrating) {
    stores[entry.to].add(entry.op, entry.out);
  }
  return static_cast<std::uint64_t>(migrating.size());
}

}  // namespace cyc::ledger
