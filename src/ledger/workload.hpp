// Synthetic transaction workload (substitute for the paper's external
// users, see DESIGN.md §3).
//
// The generator maintains the true global ledger state: a pool of
// confirmed spendable outputs per user. Generated transactions spend only
// confirmed outputs, so every "honest" transaction is valid by
// construction; the engine reports back which transactions were committed
// so the pool stays consistent. Invalid transactions of three kinds can
// be injected to exercise the authentication function V and the voting /
// reputation machinery.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ledger/shard_map.hpp"
#include "ledger/types.hpp"
#include "ledger/utxo.hpp"
#include "support/rng.hpp"

namespace cyc::ledger {

enum class InvalidKind : std::uint8_t {
  kBadSignature,
  kUnknownInput,
  kOverspend,
  /// A second, correctly signed spend of an outpoint already consumed by
  /// an earlier in-flight transaction — individually V-valid, but one of
  /// the pair must be rejected (§VIII-B "relevant" transactions).
  kDoubleSpendPair,
};

struct WorkloadConfig {
  std::uint32_t shards = 4;
  std::uint32_t users = 64;          ///< total user keys
  std::uint32_t outputs_per_user = 4;
  Amount initial_amount = 1000;
  double cross_shard_fraction = 0.2;  ///< fraction of txs spanning shards
  double invalid_fraction = 0.0;      ///< fraction of injected invalid txs
  Amount fee = 1;                     ///< fee left on each transaction
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, std::uint64_t seed);

  /// Genesis UTXO stores, one per shard, reflecting the initial grants.
  const std::vector<UtxoStore>& genesis() const { return genesis_; }

  /// Generate up to `count` transactions (fewer if the spendable pool
  /// runs dry — every missing transaction is counted in shortfall()).
  /// Valid ones spend confirmed outputs only.
  std::vector<Transaction> next_batch(std::size_t count);

  /// Open-loop entry point: a valid spend from `user` when that user has
  /// confirmed funds; otherwise the request counts in shortfall() and
  /// falls back to any funded user (preserving offered load at the cost
  /// of the requested skew), returning the empty sentinel only when the
  /// whole pool is dry. `user` must be < config().users.
  Transaction next_tx_from(std::size_t user, bool cross_shard);

  /// Inject one ground-truth-invalid transaction (open-loop sources mix
  /// these in at their own rate; next_batch keeps drawing kinds
  /// internally from config().invalid_fraction).
  Transaction inject_invalid(InvalidKind kind) { return make_invalid_tx(kind); }

  /// Requested transactions the generator could not produce from the
  /// requested source: next_batch calls cut short by a dry pool and
  /// next_tx_from calls whose preferred user had no confirmed output.
  /// A silently deflated offered load looks exactly like a healthy
  /// under-loaded system in every throughput metric, so the open-loop
  /// engine surfaces this counter per round.
  std::uint64_t shortfall() const { return shortfall_; }

  /// Install the epoch's account→shard map: every shard lookup routes
  /// through it from now on, and the per-shard user buckets are rebuilt
  /// to match. Throws if the map's shard count disagrees with the
  /// config, or if the re-map would leave a shard with no users (the
  /// planner never emits such a plan).
  void install_shard_map(std::shared_ptr<const ShardMap> map);
  const std::shared_ptr<const ShardMap>& shard_map() const { return map_; }

  /// Home shard of `user` (arrival sources route by spender shard).
  /// Routes through the installed epoch map so the generator can never
  /// disagree with the engine; without a map it falls back to the
  /// construction-time hash cache.
  ShardId shard_of_user(std::size_t user) const {
    return map_ ? map_->shard(users_[user].pk) : user_shard_[user];
  }

  /// The construction-/install-time cache behind the per-shard user
  /// buckets. The invariant checker cross-checks it against the epoch
  /// map; it is not a routing source.
  ShardId cached_shard_of_user(std::size_t user) const {
    return user_shard_[user];
  }

  const crypto::PublicKey& user_pk(std::size_t user) const {
    return users_[user].pk;
  }

  /// TEST-ONLY: corrupt the cached shard of `user` without touching the
  /// map — forges the cache/map desync the `epoch-rebalance-mapping`
  /// invariant must flag.
  void force_cached_shard(std::size_t user, ShardId shard) {
    user_shard_[user] = shard;
  }

  /// Report that `tx` was committed: its outputs become spendable.
  void mark_committed(const Transaction& tx);

  /// Report that `tx` was rejected: its inputs return to the pool.
  void mark_rejected(const Transaction& tx);

  std::size_t spendable_outputs() const;
  std::uint32_t shards() const { return config_.shards; }
  const WorkloadConfig& config() const { return config_; }

  /// True ground truth: whether the generator built `tx` as a valid spend.
  bool is_ground_truth_valid(const TxId& id) const;

 private:
  struct Spendable {
    OutPoint op;
    Amount amount = 0;
    std::size_t user = 0;
  };

  Transaction make_valid_tx(bool cross_shard);
  Transaction make_valid_tx_from(std::size_t spender, bool cross_shard);
  Transaction make_invalid_tx(InvalidKind kind);
  std::size_t pick_user_with_funds();
  std::size_t pick_user_in_shard(ShardId shard);
  std::size_t pick_user_not_in_shard(ShardId shard);

  WorkloadConfig config_;
  rng::Stream rng_;
  std::shared_ptr<const ShardMap> map_;  ///< epoch map; null until installed
  std::vector<crypto::KeyPair> users_;
  // (pk.y, user) sorted by key, users in index order within a key: routes
  // a committed output to the first user holding its owner key without
  // scanning every user.
  std::vector<std::pair<std::uint64_t, std::size_t>> users_by_key_;
  std::vector<ShardId> user_shard_;
  std::vector<std::vector<std::size_t>> shard_users_;
  std::vector<UtxoStore> genesis_;
  // Spendable pool per user (confirmed, unspent).
  std::vector<std::deque<Spendable>> pool_;
  // Inputs consumed by in-flight txs: txid -> consumed spendables.
  std::unordered_map<std::string, std::vector<Spendable>> in_flight_;
  std::unordered_map<std::string, bool> ground_truth_;
  std::uint64_t shortfall_ = 0;
};

}  // namespace cyc::ledger
