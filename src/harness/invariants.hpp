// Protocol invariant suite: paper-level properties checked against Engine
// introspection after every completed round.
//
// The checker attaches to a freshly constructed Engine, mirrors the
// genesis shard state, and replays every block it sees onto the mirror —
// the per-shard digest comparison then catches any divergence between
// the blocks the referee certified and the authoritative UTXO views
// (including hand-injected corruption, which is how the suite proves
// itself non-vacuous). Stateless per-block/per-flow checks are exposed as
// static helpers so fault-injection tests can feed them forged data
// directly.
//
// Invariants (identifier -> property):
//   safety-invalid-committed     no ground-truth-invalid tx reaches a block
//   chain-linkage                header chain validates, height advances by 1
//   block-body                   retained block matches the chain tip header
//   block-exactly-once           a committed tx appears in exactly one block
//   double-spend                 no outpoint is spent by two committed txs
//   spend-of-missing-output      block txs only spend outputs that exist
//   tx-signature                 every committed tx carries a valid signature
//   utxo-mirror-digest           shard views == independent block replay
//   utxo-incremental-digest      O(1) rolling digest == full recomputation
//   value-conservation           total shard value never increases
//   flow-conservation            offered == settled + carried + dropped,
//                                no foreign txs, carryover size matches
//   recovery-bounds              recoveries respect the per-committee cap
//   honest-leader-evicted        only misbehaving leaders are evicted
//   honest-leader-convicted      only misbehaving leaders are convicted
//   recovery-replacement         replacements come from the partial set
//   commit-or-recover            honest-majority committees produce output
//                                (recovery armed only under an honest-
//                                active C_R majority — Alg. 6 runs
//                                through the referees)
//   honest-reputation-cliff      honest reputation never takes a conviction-
//                                sized drop (vote scores are bounded by 1)
//   subblock-in-block            every transaction of a released §VIII-B
//                                sub-block is in B^r, unless B^r spends one
//                                of its inputs (the block-level double-spend
//                                guard kept the other spend)
//
// Fault-fabric invariants (partitions / crash-restart, src/net/faults.*):
//   partition-no-straddle        a committee severed below referee quorum
//                                certifies no output while cut off
//   partition-liveness-resume    a healed, eligible committee resumes
//                                output on its first healthy round
//   restart-replay-digest        a restarted node's adopted catch-up state
//                                equals the honest block-replay digest
//
// Probabilistic message loss (params.faults.drop > 0) parks the liveness
// checks — any single round's output is best-effort under loss — but
// every safety invariant above stays armed.
//
// Epoch-boundary invariants (checked against each EpochHandoff record,
// src/epoch/):
//   epoch-handoff-continuity     record matches the post-reconfiguration
//                                chain head, shard digests and randomness
//   epoch-tx-preservation        no carried tx lost or duplicated (size +
//                                order-sensitive digest of the Remaining
//                                TX List)
//   epoch-reputation-conservation surviving members' reputation carried
//                                across exactly
//   epoch-membership             roles drawn from the recorded members,
//                                disjoint and correctly sized; retirees
//                                hold no role
//   epoch-committee-honest-majority under the threat model (> 2/3 honest
//                                members) every re-drawn committee and
//                                C_R keeps an honest majority
//
// Rebalance invariants (load-aware re-draw, src/epoch/rebalance.*; armed
// only when a handoff carries a RebalancePlan):
//   epoch-rebalance-plan         the recorded plan equals a deterministic
//                                recomputation from the same load window,
//                                roster and membership (and a rebalance-
//                                enabled boundary always records one)
//   epoch-rebalance-mapping      move sources match the pre-boundary map,
//                                the engine installed exactly the map the
//                                plan digests, and the workload's cached
//                                shard assignments agree with it
//   epoch-rebalance-tx-preservation replaying the migration on the mirror
//                                moves the claimed number of outputs,
//                                conserves value, and strands no entry
//                                outside its mapped home shard
//   epoch-rebalance-fair-draw    a split/merge recommendation stays within
//                                budget and under the exact-hypergeometric
//                                fair-draw safety threshold
#pragma once

#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "epoch/handoff.hpp"
#include "epoch/rebalance.hpp"
#include "ledger/block.hpp"
#include "ledger/shard_map.hpp"
#include "ledger/utxo.hpp"
#include "protocol/engine.hpp"

namespace cyc::harness {

struct Violation {
  std::string invariant;   ///< stable identifier (see table above)
  std::uint64_t round = 0;
  std::string detail;
};

class InvariantChecker {
 public:
  /// Attach to `engine` *before* its first run_round: the checker
  /// snapshots the current shard state as its replay baseline.
  explicit InvariantChecker(const protocol::Engine& engine);

  /// Check every invariant against the just-completed round; returns the
  /// number of violations this call added.
  std::size_t check_round(const protocol::RoundReport& report);

  /// Audit one epoch boundary: call right after the EpochManager produced
  /// `handoff` (and after check_round for the epoch's last round, so the
  /// reputation snapshot is current). Returns violations added.
  std::size_t check_epoch_boundary(const epoch::EpochHandoff& handoff);

  const std::vector<Violation>& violations() const { return violations_; }
  std::size_t rounds_checked() const { return rounds_checked_; }

  // --- stateless helpers (fault-injection tests call these directly) ---

  /// Exactly-once + double-spend + signature + spend-existence checks for
  /// one block, against caller-owned cross-round state. `mirror` is the
  /// pre-block shard state; the block is applied to it on the way.
  static void check_block_txs(
      const ledger::Block& block, std::uint32_t m,
      std::set<std::string>& committed_ids,
      std::unordered_set<ledger::OutPoint, ledger::OutPointHash>& spent,
      std::vector<ledger::UtxoStore>& mirror, std::uint64_t round,
      std::vector<Violation>& out);

  /// Digest cross-check: engine state vs replayed mirror, and each
  /// store's incremental digest vs its from-scratch recomputation.
  static void check_state_digests(const std::vector<ledger::UtxoStore>& state,
                                  const std::vector<ledger::UtxoStore>& mirror,
                                  std::uint64_t round,
                                  std::vector<Violation>& out);

  /// §VIII-B: members adopt a released sub-block before B^r exists, so
  /// each of its transactions must reach B^r — or lose a double spend to
  /// a B^r transaction, which the block-level guard resolves.
  static void check_subblocks(const std::vector<protocol::SubBlock>& subblocks,
                              const ledger::Block& block, std::uint64_t round,
                              std::vector<Violation>& out);

  /// §IV-G flow conservation for one round.
  static void check_flow(const protocol::RoundFlow& flow,
                         std::size_t carryover_size, std::uint64_t round,
                         std::vector<Violation>& out);

  /// Partition discipline for one committee-round: a severed committee
  /// must not certify output (no-straddle), and a committee severed last
  /// round that is healthy and `eligible` now must resume producing.
  static void check_partition_round(const protocol::CommitteeRoundStats& stats,
                                    bool severed_last_round, bool eligible,
                                    std::uint64_t round,
                                    std::vector<Violation>& out);

  /// Crash-restart audit: every successful catch-up must have adopted
  /// exactly `expected` — the digest an honest replay of the committed
  /// chain produces for the state the referees served.
  static void check_catchup(const std::vector<protocol::CatchUpRecord>& events,
                            const crypto::Digest& expected,
                            std::uint64_t round, std::vector<Violation>& out);

  /// Handoff vs engine state: continuity (chain head, shard digests,
  /// randomness), tx preservation (Remaining TX List size + digest) and
  /// reputation conservation of surviving members. A forged record — a
  /// dropped carried tx, an inflated reputation total, a stale chain
  /// head — fails recomputation here.
  static void check_handoff_state(const epoch::EpochHandoff& handoff,
                                  const protocol::Engine& engine,
                                  std::vector<Violation>& out);

  /// Membership / role soundness of the post-boundary assignment against
  /// the handoff's recorded membership and the protocol shape.
  static void check_handoff_membership(const epoch::EpochHandoff& handoff,
                                       const protocol::RoundAssignment& assign,
                                       std::uint32_t m, std::uint32_t lambda,
                                       std::uint32_t referee_size,
                                       std::vector<Violation>& out);

  /// Honest-majority audit of a (re-)drawn assignment. Armed only when
  /// the overall membership satisfies the threat model (> 2/3 honest),
  /// and — because committee security is inherently probabilistic
  /// (Eq. 3) — a corrupt-majority group is flagged only when the exact
  /// hypergeometric tail says a fair draw could not plausibly have
  /// produced it (evidence of a rigged draw, not bad luck).
  static void check_committee_honesty(
      const protocol::RoundAssignment& assign,
      const std::vector<net::NodeId>& members,
      const std::function<bool(net::NodeId)>& corrupt, std::uint64_t round,
      std::vector<Violation>& out);

  /// Rebalance plan audit against caller-supplied inputs: determinism
  /// (the record must equal a recomputation from the same window /
  /// roster / membership), mapping soundness (sources per `pre_map`,
  /// in-range targets) and fair-draw safety of a split/merge. Forged
  /// plans feed this directly in the non-vacuity tests.
  static void check_rebalance_plan(
      const epoch::RebalancePlan& plan, const epoch::RebalanceConfig& cfg,
      const ledger::ShardMap& pre_map, const ledger::ShardLoadWindow& window,
      const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
      std::size_t member_count, std::size_t corrupt_members,
      std::uint32_t committee_size, std::uint64_t round,
      std::vector<Violation>& out);

  /// Replay the plan's migration on caller-owned mirror stores: the
  /// moved-output count must match the record, total value must be
  /// conserved, no entry may be stranded outside its mapped home, and
  /// the successor map must digest to the plan's map_digest. On success
  /// `mirror_map` advances to the successor map.
  static void check_rebalance_migration(const epoch::RebalancePlan& plan,
                                        std::vector<ledger::UtxoStore>& mirror,
                                        ledger::ShardMap& mirror_map,
                                        std::uint64_t round,
                                        std::vector<Violation>& out);

 private:
  void check_chain(const protocol::RoundReport& report);
  void check_recovery(const protocol::RoundReport& report);
  void check_liveness(const protocol::RoundReport& report);
  void check_reputation(const protocol::RoundReport& report);

  void add(std::string invariant, std::uint64_t round, std::string detail) {
    violations_.push_back({std::move(invariant), round, std::move(detail)});
  }

  const protocol::Engine& engine_;
  std::vector<ledger::UtxoStore> mirror_;  ///< replayed shard state
  ledger::ShardMap mirror_map_;  ///< independently tracked account→shard map
  std::set<std::string> committed_ids_;    ///< across all checked rounds
  std::unordered_set<ledger::OutPoint, ledger::OutPointHash> spent_;
  std::vector<double> prev_reputation_;
  std::vector<bool> severed_prev_;         ///< per committee, last round
  ledger::Amount prev_total_value_ = 0;
  std::size_t base_height_ = 0;
  std::size_t rounds_checked_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace cyc::harness
