// Protocol parameters (§III-A notation: n nodes, m committees of expected
// size c, partial sets of size lambda, referee committee C_R).
#pragma once

#include <cstdint>

#include "net/simnet.hpp"

namespace cyc::protocol {

/// PoW participation puzzle difficulty (leading zero bits; small so
/// simulations stay fast).
inline constexpr unsigned kPowBits = 8;

struct Params {
  std::uint32_t m = 4;             ///< number of committees
  std::uint32_t c = 12;            ///< committee size
  std::uint32_t lambda = 3;        ///< partial-set size (paper suggests 40)
  std::uint32_t referee_size = 9;  ///< |C_R|

  net::DelayModel delays{};

  /// Probabilistic message faults on the wide-area links
  /// (net::FaultProfile); intra-committee links stay reliable (§III-B).
  /// Draws come from the engine's dedicated fault stream, so a zeroed
  /// profile leaves runs byte-identical.
  net::FaultProfile faults{};

  /// Workload knobs.
  std::uint32_t txs_per_committee = 16;  ///< TXList length per round
  double cross_shard_fraction = 0.2;
  double invalid_fraction = 0.05;
  std::uint32_t users = 0;  ///< 0 = auto (16 per shard)

  /// Open-loop sustained-traffic source (src/ledger/README.md). 0 keeps
  /// the closed-loop fixed-batch workload bit-for-bit. When > 0: expected
  /// transaction arrivals per unit of simulated time (Poisson process,
  /// Zipf(zipf_s) account popularity — hot accounts make hot shards),
  /// admitted into bounded per-shard mempools of `mempool_cap` entries
  /// (drop-with-count when full) that the engine drains — up to
  /// txs_per_committee per committee — each round, with per-transaction
  /// arrival -> commit latency reported in RoundReport::open_loop.
  double arrival_rate = 0.0;
  double zipf_s = 1.0;              ///< account-popularity exponent (0 = uniform)
  std::uint32_t mempool_cap = 256;  ///< per-shard admission bound

  /// Load-aware epoch re-draw (src/epoch/rebalance.*): at each epoch
  /// boundary a deterministic planner moves the hottest accounts off
  /// overloaded shards; the shard count stays fixed within a run. Off
  /// keeps the map free of overrides, so every account stays on its hash
  /// shard (the engine then accumulates no load window and the handoff
  /// carries no plan).
  bool rebalance = false;
  std::uint32_t rebalance_moves = 4;  ///< max account moves per boundary

  /// Vote capacity model (§VII: reputation reflects computing power):
  /// node capacity is drawn uniformly from [capacity_min, capacity_max];
  /// a node judges at most `capacity` transactions per list and votes
  /// Unknown beyond that.
  std::uint32_t capacity_min = 64;
  std::uint32_t capacity_max = 64;

  /// Extra nodes in the simulated universe beyond the `total_nodes()`
  /// active seats. Standby nodes hold keys but are not enrolled: they sit
  /// out every round until an epoch boundary admits them (solving the
  /// identity PoW puzzle, src/epoch/). 0 keeps the pre-epoch behaviour
  /// bit-for-bit.
  std::uint32_t standby = 0;

  /// Phase schedule (in units of the intra-committee bound Delta), per
  /// the paper's recommendation that semi-commitment exchange starts 8
  /// Delta after configuration.
  double config_duration = 8.0;
  double semicommit_duration = 24.0;
  double intra_duration = 30.0;
  double inter_duration = 40.0;
  double reputation_duration = 24.0;
  double selection_duration = 16.0;
  double block_duration = 24.0;

  std::uint64_t seed = 1;

  /// The scheduled length of one round in simulated time: the seven
  /// phase durations, in units of Delta (the open-loop arrival window).
  double round_duration() const {
    return (config_duration + semicommit_duration + intra_duration +
            inter_duration + reputation_duration + selection_duration +
            block_duration) *
           delays.delta;
  }

  std::uint32_t total_nodes() const { return referee_size + m * c; }
  /// Active seats plus the standby pool (the full simulated universe).
  std::uint32_t universe() const { return total_nodes() + standby; }
};

}  // namespace cyc::protocol
