// Round / run reports: everything the experiments and tests observe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "net/stats.hpp"
#include "protocol/adversary.hpp"
#include "protocol/roles.hpp"

namespace cyc::protocol {

struct RecoveryEvent {
  std::uint64_t round = 0;
  std::uint32_t committee = 0;
  net::NodeId old_leader = net::kNoNode;
  net::NodeId new_leader = net::kNoNode;
  std::string witness_kind;
};

/// One resolved catch-up attempt of a restarted node (crash-recovery).
/// On success the node adopted `adopted_digest` after `confirms` distinct
/// referees vouched for it; on failure it exhausted its retry budget and
/// re-crashed.
struct CatchUpRecord {
  net::NodeId node = net::kNoNode;
  std::uint64_t round = 0;
  std::uint32_t attempt = 0;
  std::size_t confirms = 0;
  bool success = false;
  crypto::Digest adopted_digest{};
};

/// Open-loop traffic accounting for one round (all fields stay zero /
/// empty unless Params::arrival_rate > 0, so closed-loop reports are
/// unchanged). Conservation: arrived == admitted + mempool_dropped +
/// exhausted per round, and cumulatively admitted == drained + backlog.
struct OpenLoopRoundStats {
  std::uint64_t arrived = 0;   ///< Poisson arrivals in this round's window
  std::uint64_t admitted = 0;  ///< accepted by a shard mempool
  std::uint64_t mempool_dropped = 0;  ///< rejected: mempool at capacity
  std::uint64_t exhausted = 0;        ///< unrepresentable: spendable pool dry
  std::uint64_t drained = 0;   ///< moved from mempools into this round's lists
  std::uint64_t backlog = 0;   ///< total mempool occupancy after the drain
  /// Cumulative WorkloadGenerator::shortfall() — requests the generator
  /// could not serve from the requested (Zipf-picked) account.
  std::uint64_t source_shortfall = 0;
  std::vector<std::size_t> occupancy;  ///< per-shard occupancy after drain
  /// Arrival -> block-commit latency in simulated time, one entry per
  /// transaction committed this round (commit stamps at the end of the
  /// round's window), in block order.
  std::vector<double> latencies;
  /// Input shard (under the epoch's account map) of each `latencies`
  /// entry, parallel to it — per-shard tail-latency accounting for the
  /// skew/rebalance bench.
  std::vector<std::uint32_t> latency_shards;
};

struct CommitteeRoundStats {
  std::uint32_t committee = 0;
  std::size_t txs_listed = 0;       ///< offered in TXList(s)
  std::size_t txs_committed = 0;    ///< reached the block
  std::size_t cross_committed = 0;  ///< committed cross-shard txs (origin here)
  bool produced_output = false;     ///< referee received a certified result
  std::size_t recoveries = 0;
  /// An active partition / blackout cut this committee off from quorum
  /// this round (no majority island holds committee majority + referee
  /// majority + a leader or partial member).
  bool severed = false;
};

struct RoundReport {
  std::uint64_t round = 0;
  std::size_t txs_committed = 0;       ///< total in block B^r
  std::size_t intra_committed = 0;
  std::size_t cross_committed = 0;
  std::size_t txs_offered = 0;
  std::size_t invalid_rejected = 0;    ///< ground-truth-invalid txs kept out
  std::size_t invalid_committed = 0;   ///< safety violations (must be 0)
  bool block_void = false;             ///< no committee produced output
  std::size_t recoveries = 0;
  std::vector<RecoveryEvent> recovery_events;
  std::vector<CatchUpRecord> catchup_events;  ///< crash-recovery attempts
  std::vector<CommitteeRoundStats> committees;
  OpenLoopRoundStats open_loop;        ///< sustained-traffic accounting
  net::FaultStats faults;              ///< injected network faults
  double round_latency = 0.0;          ///< simulated time consumed
  double total_fees = 0.0;
  net::Counter traffic_total;

  /// Per (role, phase) traffic for this round (Table II measurement),
  /// indexed by net::Phase; a role's total is the sum over phases.
  std::map<Role, std::vector<net::Counter>> traffic_by_role_phase;
  /// Number of nodes that held each role this round.
  std::map<Role, std::size_t> role_counts;
  /// Per-role storage proxy (bytes of member lists + commitments + utxo +
  /// certificates held at round end).
  std::map<Role, double> storage_by_role;
};

struct RunReport {
  std::vector<RoundReport> rounds;
  std::vector<double> final_reputations;  ///< by node id
  std::vector<double> final_rewards;      ///< cumulative, by node id
  std::vector<Behavior> behaviors;        ///< by node id

  std::size_t total_committed() const {
    std::size_t total = 0;
    for (const auto& r : rounds) total += r.txs_committed;
    return total;
  }
  std::size_t total_recoveries() const {
    std::size_t total = 0;
    for (const auto& r : rounds) total += r.recoveries;
    return total;
  }
  std::size_t total_invalid_committed() const {
    std::size_t total = 0;
    for (const auto& r : rounds) total += r.invalid_committed;
    return total;
  }
};

}  // namespace cyc::protocol
