// Cross-epoch state handoff (§IV-F/§IV-G across a reshuffle).
//
// When an epoch boundary re-draws every committee, the protocol state
// that must survive the reshuffle is exactly: the chain head, the
// per-shard UTXO views (as digests — the new committees re-seed their
// shard copies from the authoritative state), the Remaining TX List, and
// every surviving node's reputation. The EpochHandoff record captures a
// digest of each so the harness can audit the boundary: nothing carried
// may be lost, duplicated, or inflated by the reconfiguration itself.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/sha256.hpp"
#include "epoch/rebalance.hpp"
#include "ledger/types.hpp"
#include "net/message.hpp"
#include "protocol/engine.hpp"

namespace cyc::epoch {

/// Auditable record of one epoch boundary, built *after* the engine was
/// reconfigured. Every field is re-derivable from public state, so a
/// forged record (dropped carried tx, inflated reputation, wrong chain
/// head) is detectable by recomputation — the invariant suite does
/// exactly that.
struct EpochHandoff {
  std::uint64_t epoch = 0;           ///< epoch being entered (1-based)
  std::uint64_t boundary_round = 0;  ///< first round of the new epoch
  crypto::Digest randomness{};       ///< epoch randomness R^e (PVSS beacon)
  crypto::Digest chain_tip{};        ///< header hash carried across
  std::uint64_t chain_height = 0;
  std::vector<crypto::Digest> shard_digests;  ///< per-shard UTXO digests
  std::uint64_t carried_txs = 0;     ///< Remaining TX List size
  crypto::Digest carried_digest{};   ///< digest over the carried tx ids
  double surviving_reputation = 0;   ///< sum over surviving members
  std::vector<net::NodeId> members;  ///< new membership (ascending ids)
  std::vector<net::NodeId> joined;   ///< admitted via the identity puzzle
  std::vector<net::NodeId> retired;  ///< departed under the churn budget
  std::uint64_t join_candidates = 0; ///< standby identities that tried
  std::uint64_t beacon_disqualified = 0;  ///< dealers dropped by PVSS
  /// Load-aware re-draw decision applied at this boundary (present iff
  /// Params::rebalance; appended after the legacy fields so records
  /// without a plan keep their pre-rebalance byte encoding and digest).
  std::optional<RebalancePlan> plan;

  /// Every field but the plan, which serialize() appends as a u8 1 and
  /// the nested plan when present; deserialize() reads it iff bytes remain.
  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(Literal{"EPOCH_HANDOFF"}, s.epoch, s.boundary_round, s.randomness,
       s.chain_tip, s.chain_height, s.shard_digests, s.carried_txs,
       s.carried_digest, s.surviving_reputation, s.members, s.joined,
       s.retired, s.join_candidates, s.beacon_disqualified);
  }
  /// Canonical encoding (deterministic; digest() hashes it).
  Bytes serialize() const;
  static EpochHandoff deserialize(BytesView b);

  /// Content digest of the whole record — the value a block or a light
  /// client would pin to audit the boundary.
  crypto::Digest digest() const;

  bool operator==(const EpochHandoff&) const = default;
};

/// Digest over a transaction list *in order* (the Remaining TX List is an
/// ordered queue, so order is part of the carried state).
crypto::Digest carryover_digest(const std::vector<ledger::Transaction>& txs);

/// Build the record from a freshly reconfigured engine plus the boundary
/// metadata the manager tracked. `joined` / `retired` are copied sorted.
EpochHandoff build_handoff(const protocol::Engine& engine,
                           std::uint64_t epoch,
                           std::vector<net::NodeId> joined,
                           std::vector<net::NodeId> retired,
                           std::uint64_t join_candidates,
                           std::uint64_t beacon_disqualified);

}  // namespace cyc::epoch
