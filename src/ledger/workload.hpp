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
//
// The generator routes every user through the epoch's `ShardMap`, which
// it holds from construction (the engine passes its own; standalone use
// passes `ShardMap(m)`). Its one derived copy is the per-shard user
// buckets, rebuilt whenever a rebalance installs a successor map.
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
  /// Throws std::invalid_argument under the same conditions as
  /// install_shard_map.
  WorkloadGenerator(WorkloadConfig config, std::uint64_t seed,
                    std::shared_ptr<const ShardMap> map);

  /// Genesis UTXO stores, one per shard, reflecting the initial grants
  /// and holding the construction-time map.
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
  /// to match. Throws if the map is null or its shard count disagrees
  /// with the config, or if the map would leave a shard with no users
  /// (the planner never emits such a plan).
  void install_shard_map(std::shared_ptr<const ShardMap> map);
  const std::shared_ptr<const ShardMap>& shard_map() const { return map_; }

  /// Home shard of `user` under the installed map (arrival sources route
  /// by spender shard).
  ShardId shard_of_user(std::size_t user) const {
    return map_->shard(users_[user].pk);
  }

  /// Users homed on `shard`, in index order — the bucket the generator
  /// draws same-/other-shard counterparties from. The invariant checker
  /// cross-checks it against the engine's map.
  const std::vector<std::size_t>& shard_users(ShardId shard) const {
    return shard_users_[shard];
  }

  const crypto::PublicKey& user_pk(std::size_t user) const {
    return users_[user].pk;
  }

  /// Report that `tx` was committed: its outputs become spendable.
  void mark_committed(const Transaction& tx);

  /// Report that `tx` was rejected: its inputs return to the pool.
  void mark_rejected(const Transaction& tx);

  /// Report that a committed spend of `tx`'s input superseded it (the
  /// §VIII-B block guard kept the other spend): it leaves the in-flight
  /// table, and its input, now spent, does not return to the pool.
  void mark_superseded(const Transaction& tx);

  std::size_t spendable_outputs() const;
  std::uint32_t shards() const { return config_.shards; }
  const WorkloadConfig& config() const { return config_; }

  /// Whether `id` is a valid spend this generator built that is still in
  /// flight: neither committed, rejected nor superseded. Invalid
  /// injections never enter the in-flight table, so for an offered
  /// transaction that has not settled this is its ground truth.
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
  std::shared_ptr<const ShardMap> map_;  ///< the epoch's map
  std::vector<crypto::KeyPair> users_;
  // (pk.y, user) sorted by key, users in index order within a key: routes
  // a committed output to the first user holding its owner key without
  // scanning every user.
  std::vector<std::pair<std::uint64_t, std::size_t>> users_by_key_;
  std::vector<std::vector<std::size_t>> shard_users_;
  std::vector<UtxoStore> genesis_;
  // Spendable pool per user (confirmed, unspent).
  std::vector<std::deque<Spendable>> pool_;
  // Inputs consumed by in-flight txs: txid -> consumed spendables.
  std::unordered_map<std::string, std::vector<Spendable>> in_flight_;
  std::uint64_t shortfall_ = 0;
};

}  // namespace cyc::ledger
