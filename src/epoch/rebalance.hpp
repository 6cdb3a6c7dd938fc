// Load-aware epoch re-draw planner (adaptive sharding under skew).
//
// CycLedger re-draws every committee at each epoch boundary anyway
// (§IV-F); this module makes the re-draw load-aware. Over the closing
// epoch the engine accumulates a per-shard ShardLoadWindow (offered
// arrivals, drops, post-drain occupancy, per-account arrival counts).
// At the boundary — after `Engine::reconfigure` re-drew the roles — the
// planner turns that window into a deterministic RebalancePlan: move the
// hottest accounts off overloaded shards onto the coldest one, and
// optionally recommend a committee split/merge scaling `m`, gated by the
// same exact-hypergeometric fair-draw constraint the epoch invariants
// enforce. The plan is recorded in the EpochHandoff so the boundary
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
/// key; `m_after` may differ from `m_before` only within the configured
/// split/merge budget and only when the fair-draw tail stays under the
/// safety threshold. The shard count recommendation is *advisory* in
/// this iteration: it is recorded and safety-checked, but the live
/// engine keeps its shard count within a run.
struct RebalancePlan {
  std::uint64_t epoch = 0;  ///< epoch being entered (matches the handoff)
  std::uint32_t m_before = 0;
  std::uint32_t m_after = 0;
  std::vector<ledger::AccountMove> moves;
  /// Exact hypergeometric per-committee failure tail at m_after's
  /// committee size (analysis::committee_failure_exact).
  double fair_draw_tail = 0.0;
  /// Digest of the successor ShardMap (pre-map.apply(moves)).
  crypto::Digest map_digest{};
  /// UTXO entries migrated between shard stores when the plan was
  /// applied (filled by the manager after Engine::apply_rebalance).
  std::uint64_t migrated_outputs = 0;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(Literal{"REBALANCE_PLAN"}, s.epoch, s.m_before, s.m_after, s.moves,
       s.fair_draw_tail, s.map_digest, s.migrated_outputs);
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
/// that still counts as an unlucky draw rather than a rigged one: the cap
/// on a split/merge recommendation and the invariant checker's threshold.
inline constexpr double kMaxFairDrawTail = 1e-6;

/// Planner knobs, derived from Params (rebalance_config below).
struct RebalanceConfig {
  bool enabled = false;
  std::uint32_t max_moves = 4;        ///< account moves per boundary
  std::uint32_t split_merge_budget = 0;  ///< max |m_after - m_before|
};

RebalanceConfig rebalance_config(const protocol::Params& params);

/// Compute the boundary's plan. Deterministic and RNG-free.
///
/// `accounts` is the full roster as (account key, current shard) under
/// `current` — the planner never empties a shard of accounts.
/// `member_count` / `corrupt_members` describe the post-reconfigure
/// membership; `committee_size` is the per-committee seat count at
/// m_before. At a recommended split/merge the seats rescale as
/// c * m_before / m_after (same total), and the fair-draw tail is the
/// exact hypergeometric corrupt-majority probability at that size.
RebalancePlan plan_rebalance(
    const RebalanceConfig& cfg, const ledger::ShardMap& current,
    const ledger::ShardLoadWindow& window,
    const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
    std::size_t member_count, std::size_t corrupt_members,
    std::uint32_t committee_size, std::uint64_t entering_epoch);

}  // namespace cyc::epoch
