#include "ledger/workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace cyc::ledger {

namespace {
std::string key_of(const TxId& id) {
  return std::string(id.begin(), id.end());
}
}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, std::uint64_t seed)
    : config_(config), rng_(rng::Stream(seed).fork("workload")) {
  if (config_.shards == 0 || config_.users == 0) {
    throw std::invalid_argument("workload: shards and users must be > 0");
  }
  shard_users_.resize(config_.shards);
  users_.reserve(config_.users);
  users_by_key_.reserve(config_.users);
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    rng::Stream key_rng = rng_.fork(u);
    users_.push_back(crypto::KeyPair::generate(key_rng));
    users_by_key_.emplace_back(users_.back().pk.y, u);
    const ShardId shard = shard_of(users_.back().pk, config_.shards);
    user_shard_.push_back(shard);
    shard_users_[shard].push_back(u);
  }
  std::sort(users_by_key_.begin(), users_by_key_.end());
  // Some shard could be empty with few users; re-home one user if so to
  // keep the generator able to target every shard.
  for (ShardId s = 0; s < config_.shards; ++s) {
    if (shard_users_[s].empty()) {
      throw std::invalid_argument(
          "workload: a shard has no users; increase users count");
    }
  }

  genesis_.reserve(config_.shards);
  for (ShardId s = 0; s < config_.shards; ++s) {
    genesis_.emplace_back(s, config_.shards);
  }
  pool_.resize(config_.users);

  // Genesis grants: synthetic coinbase outpoints, one per user per slot.
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    for (std::uint32_t k = 0; k < config_.outputs_per_user; ++k) {
      const crypto::Digest d = crypto::sha256_concat(
          {bytes_of("cyc.genesis"), be64(u), be64(k)});
      const OutPoint op{d, 0};
      const TxOut out{users_[u].pk, config_.initial_amount};
      genesis_[user_shard_[u]].add(op, out);
      pool_[u].push_back(Spendable{op, config_.initial_amount, u});
    }
  }
}

void WorkloadGenerator::install_shard_map(
    std::shared_ptr<const ShardMap> map) {
  if (!map || map->shards() != config_.shards) {
    throw std::invalid_argument(
        "workload: shard map does not match the configured shard count");
  }
  map_ = std::move(map);
  for (auto& bucket : shard_users_) bucket.clear();
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    const ShardId shard = map_->shard(users_[u].pk);
    user_shard_[u] = shard;
    shard_users_[shard].push_back(u);
  }
  for (ShardId s = 0; s < config_.shards; ++s) {
    if (shard_users_[s].empty()) {
      throw std::invalid_argument(
          "workload: shard map leaves a shard with no users");
    }
  }
}

std::size_t WorkloadGenerator::spendable_outputs() const {
  std::size_t total = 0;
  for (const auto& q : pool_) total += q.size();
  return total;
}

std::size_t WorkloadGenerator::pick_user_with_funds() {
  // Bounded retries, then linear scan to stay deterministic & total.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t u =
        static_cast<std::size_t>(rng_.below(users_.size()));
    if (!pool_[u].empty()) return u;
  }
  for (std::size_t u = 0; u < users_.size(); ++u) {
    if (!pool_[u].empty()) return u;
  }
  return users_.size();  // pool dry
}

std::size_t WorkloadGenerator::pick_user_in_shard(ShardId shard) {
  const auto& candidates = shard_users_[shard];
  return candidates[static_cast<std::size_t>(rng_.below(candidates.size()))];
}

std::size_t WorkloadGenerator::pick_user_not_in_shard(ShardId shard) {
  if (config_.shards == 1) return pick_user_in_shard(0);
  for (;;) {
    const ShardId s =
        static_cast<ShardId>(rng_.below(config_.shards));
    if (s != shard) return pick_user_in_shard(s);
  }
}

Transaction WorkloadGenerator::make_valid_tx(bool cross_shard) {
  const std::size_t spender = pick_user_with_funds();
  if (spender == users_.size()) return Transaction{};  // empty sentinel
  return make_valid_tx_from(spender, cross_shard);
}

Transaction WorkloadGenerator::make_valid_tx_from(std::size_t spender,
                                                  bool cross_shard) {
  Transaction tx;
  tx.spender = users_[spender].pk;
  Spendable input = pool_[spender].front();
  pool_[spender].pop_front();
  tx.inputs.push_back(input.op);

  Amount budget = input.amount;
  if (budget <= config_.fee) {
    // Dust: burn it entirely as fee with a 1-unit self output.
    tx.outputs.push_back(TxOut{users_[spender].pk, budget});
  } else {
    budget -= config_.fee;
    const ShardId home = shard_of_user(spender);
    const std::size_t receiver = cross_shard
                                     ? pick_user_not_in_shard(home)
                                     : pick_user_in_shard(home);
    const Amount pay = 1 + rng_.below(budget);
    tx.outputs.push_back(TxOut{users_[receiver].pk, pay});
    if (budget > pay) {
      tx.outputs.push_back(TxOut{users_[spender].pk, budget - pay});
    }
  }
  sign_tx(tx, users_[spender].sk);

  in_flight_[key_of(tx.id())] = {input};
  ground_truth_[key_of(tx.id())] = true;
  return tx;
}

Transaction WorkloadGenerator::make_invalid_tx(InvalidKind kind) {
  Transaction tx;
  const std::size_t spender =
      static_cast<std::size_t>(rng_.below(users_.size()));
  tx.spender = users_[spender].pk;
  switch (kind) {
    case InvalidKind::kUnknownInput: {
      const crypto::Digest fake = crypto::sha256_concat(
          {bytes_of("cyc.fake"), be64(rng_.next())});
      tx.inputs.push_back(OutPoint{fake, 0});
      tx.outputs.push_back(TxOut{users_[spender].pk, 1});
      sign_tx(tx, users_[spender].sk);
      break;
    }
    case InvalidKind::kBadSignature: {
      const std::size_t victim = pick_user_with_funds();
      if (victim == users_.size()) return make_invalid_tx(InvalidKind::kUnknownInput);
      // Spend the victim's output but sign with the attacker's key;
      // do NOT remove it from the pool — the theft must fail.
      const Spendable& target = pool_[victim].front();
      tx.spender = users_[victim].pk;
      tx.inputs.push_back(target.op);
      tx.outputs.push_back(TxOut{users_[spender].pk, target.amount});
      sign_tx(tx, users_[spender].sk);  // wrong key
      break;
    }
    case InvalidKind::kOverspend: {
      const std::size_t victim = pick_user_with_funds();
      if (victim == users_.size()) return make_invalid_tx(InvalidKind::kUnknownInput);
      const Spendable& target = pool_[victim].front();
      tx.spender = users_[victim].pk;
      tx.inputs.push_back(target.op);
      tx.outputs.push_back(TxOut{users_[victim].pk, target.amount * 2 + 1});
      sign_tx(tx, users_[victim].sk);
      break;
    }
    case InvalidKind::kDoubleSpendPair: {
      // Re-spend an outpoint some in-flight transaction already uses;
      // both spends verify individually against the confirmed state.
      if (in_flight_.empty()) {
        return make_invalid_tx(InvalidKind::kUnknownInput);
      }
      const auto& consumed = in_flight_.begin()->second;
      if (consumed.empty()) return make_invalid_tx(InvalidKind::kUnknownInput);
      const Spendable& target = consumed.front();
      tx.spender = users_[target.user].pk;
      tx.inputs.push_back(target.op);
      tx.outputs.push_back(TxOut{users_[target.user].pk, target.amount});
      sign_tx(tx, users_[target.user].sk);
      break;
    }
  }
  ground_truth_[key_of(tx.id())] = false;
  return tx;
}

std::vector<Transaction> WorkloadGenerator::next_batch(std::size_t count) {
  std::vector<Transaction> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng_.chance(config_.invalid_fraction)) {
      const auto kind = static_cast<InvalidKind>(rng_.below(4));
      batch.push_back(make_invalid_tx(kind));
      continue;
    }
    Transaction tx = make_valid_tx(rng_.chance(config_.cross_shard_fraction));
    if (tx.inputs.empty()) {  // pool dry: the deficit is real offered load
      shortfall_ += count - batch.size();
      break;
    }
    batch.push_back(std::move(tx));
  }
  return batch;
}

Transaction WorkloadGenerator::next_tx_from(std::size_t user,
                                            bool cross_shard) {
  if (user < pool_.size() && !pool_[user].empty()) {
    return make_valid_tx_from(user, cross_shard);
  }
  // The requested account has no confirmed output: count the miss (the
  // skew the caller asked for is not being served) and keep the offered
  // load up by spending from any funded user instead.
  shortfall_ += 1;
  return make_valid_tx(cross_shard);
}

void WorkloadGenerator::mark_committed(const Transaction& tx) {
  const TxId id = tx.id();
  in_flight_.erase(key_of(id));
  // New outputs become spendable by their owners.
  for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
    const auto& out = tx.outputs[i];
    const auto owner = std::lower_bound(
        users_by_key_.begin(), users_by_key_.end(),
        std::pair<std::uint64_t, std::size_t>(out.owner.y, 0));
    if (owner == users_by_key_.end() || owner->first != out.owner.y) continue;
    const std::size_t u = owner->second;
    pool_[u].push_back(Spendable{OutPoint{id, i}, out.amount, u});
  }
}

void WorkloadGenerator::mark_rejected(const Transaction& tx) {
  const std::string key = key_of(tx.id());
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return;  // invalid txs consumed nothing
  for (const auto& sp : it->second) {
    pool_[sp.user].push_back(sp);
  }
  in_flight_.erase(it);
}

bool WorkloadGenerator::is_ground_truth_valid(const TxId& id) const {
  auto it = ground_truth_.find(key_of(id));
  return it != ground_truth_.end() && it->second;
}

}  // namespace cyc::ledger
