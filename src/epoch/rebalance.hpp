// Load-aware epoch re-draw planner (adaptive sharding under skew).
//
// CycLedger re-draws every committee at each epoch boundary anyway
// (§IV-F); this module makes the re-draw load-aware. Over the closing
// epoch the engine accumulates a per-shard ShardLoadWindow (offered
// arrivals and per-account arrival counts). At the boundary — after
// `Engine::reconfigure` re-drew the roles — the planner turns that window
// into a deterministic RebalancePlan: move the hottest accounts off
// overloaded shards onto the coldest one. The shard count stays fixed
// within a run. The plan is recorded in the EpochHandoff so the boundary
// stays auditable: the invariant checker re-derives the plan from the
// same inputs and replays the migration against its own mirror.
//
// The planner is a pure function of its inputs — no RNG, no wall clock —
// so a recomputation from the audit record reproduces it bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.hpp"
#include "ledger/shard_map.hpp"
#include "protocol/params.hpp"
#include "support/serde.hpp"

namespace cyc::epoch {

/// One epoch boundary's re-draw decision. `moves` is sorted by account
/// key.
struct RebalancePlan {
  std::uint64_t epoch = 0;  ///< epoch being entered (matches the handoff)
  std::vector<ledger::AccountMove> moves;
  /// Digest of the successor ShardMap (pre-map.apply(moves)).
  crypto::Digest map_digest{};
  /// UTXO entries migrated between shard stores when the plan was
  /// applied (filled by the manager after Engine::apply_rebalance).
  std::uint64_t migrated_outputs = 0;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(Literal{"REBALANCE_PLAN"}, s.epoch, s.moves, s.map_digest,
       s.migrated_outputs);
  }
  Bytes serialize() const { return encode(*this); }
  static RebalancePlan deserialize(BytesView b) {
    return decode<RebalancePlan>(b);
  }
  crypto::Digest digest() const;

  bool operator==(const RebalancePlan&) const = default;
};

/// A shard is hot when its offered load exceeds this multiple of the mean.
inline constexpr double kOverloadThreshold = 1.10;
/// Highest exact fair-draw probability of a corrupt-majority committee
/// that still counts as an unlucky draw rather than a rigged one: the
/// invariant checker's threshold.
inline constexpr double kMaxFairDrawTail = 1e-6;

/// Compute the boundary's plan. Deterministic and RNG-free. With
/// `params.rebalance` off the plan is the identity; otherwise it carries
/// at most `params.rebalance_moves` moves.
///
/// `accounts` is the full roster as (account key, current shard) under
/// `current` — the planner never empties a shard of accounts.
RebalancePlan plan_rebalance(
    const protocol::Params& params, const ledger::ShardMap& current,
    const ledger::ShardLoadWindow& window,
    const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
    std::uint64_t entering_epoch);

}  // namespace cyc::epoch
