// Epoch lifecycle driver (§IV-F over many reshuffles).
//
// CycLedger is epoch-structured: identities are established by a
// proof-of-work puzzle, committees are re-drawn from fresh distributed
// randomness, and reputation / ledger state must survive the reshuffle.
// The round Engine executes the seven phases *within* one membership;
// EpochManager wraps it and drives the boundary between memberships:
//
//   1. identity churn — joining identities from the standby pool solve a
//      hash-preimage puzzle keyed on the epoch randomness (Sybil
//      resistance; midstate reuse via crypto/pow), departing members are
//      retired under a bounded per-epoch churn budget;
//   2. epoch randomness — the referee committee runs one PVSS beacon
//      round (crypto/pvss); misbehaving referees publish a corrupted
//      share and are disqualified by public verification; the beacon
//      output is bound to the chain head;
//   3. reconfiguration — Engine::reconfigure re-draws all m committees,
//      the partial sets and C_R from the new randomness over the new
//      membership (crypto_sort + role-hash lottery), keeping the chain,
//      the per-shard UTXO views, the Remaining TX List and every
//      surviving node's reputation;
//   4. handoff — an EpochHandoff record digests everything carried
//      across, so the harness can audit the boundary.
//
// With epochs = 1 (or churn 0 and one epoch) the manager degenerates to
// plain Engine::run_round calls — bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "epoch/handoff.hpp"
#include "protocol/engine.hpp"
#include "support/rng.hpp"

namespace cyc::epoch {

/// Bounded-churn budget: hard cap on the per-epoch replacement fraction,
/// per the "Divide and Scale" epoch-security argument that only a bounded
/// fraction may reshuffle between consecutive epochs.
inline constexpr double kMaxChurnFraction = 0.25;
/// Identity puzzle difficulty (leading zero bits). Separate from the
/// per-round participation puzzle (protocol::kPowBits): joining an epoch
/// is the Sybil-resistance event, so it is the harder puzzle.
inline constexpr unsigned kJoinPowBits = 12;
/// Bound on the join puzzle search; a candidate that exhausts it stays in
/// the standby pool (its seat is simply not churned this epoch).
inline constexpr std::uint64_t kJoinPowMaxIters = 1ull << 22;

struct EpochConfig {
  std::size_t epochs = 1;
  std::size_t rounds_per_epoch = 2;
  /// Fraction of the membership replaced per boundary (before the cap).
  double churn_rate = 0.0;
};

class EpochManager {
 public:
  /// The engine is constructed inside (Params::standby > 0 provisions the
  /// join pool). Throws std::invalid_argument on epochs == 0 or
  /// rounds_per_epoch == 0.
  EpochManager(protocol::Params params, protocol::AdversaryConfig adversary,
               EpochConfig config, protocol::EngineOptions options = {});
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Run one round; when this completes the current epoch's quota and
  /// another epoch remains, the boundary (churn + beacon + reconfigure +
  /// handoff) runs immediately afterwards. Drive the full schedule with
  /// `while (!finished()) run_round();`. Throws std::logic_error once
  /// finished().
  protocol::RoundReport run_round();

  bool finished() const {
    return epoch_ + 1 >= config_.epochs &&
           round_in_epoch_ >= config_.rounds_per_epoch;
  }
  /// Epoch currently executing (0-based; handoffs_[i] entered epoch i+1).
  std::uint64_t epoch() const { return epoch_; }
  std::size_t rounds_run() const { return rounds_run_; }
  std::size_t total_rounds() const {
    return config_.epochs * config_.rounds_per_epoch;
  }

  const EpochConfig& config() const { return config_; }
  const std::vector<EpochHandoff>& handoffs() const { return handoffs_; }
  /// Host wall-clock cost of each boundary, parallel to handoffs().
  /// Bench-only: never folded into deterministic artifacts.
  const std::vector<double>& transition_wall_ms() const {
    return transition_wall_ms_;
  }

  protocol::Engine& engine() { return *engine_; }
  const protocol::Engine& engine() const { return *engine_; }

 private:
  void perform_boundary();

  EpochConfig config_;
  std::unique_ptr<protocol::Engine> engine_;
  rng::Stream rng_;
  std::uint64_t epoch_ = 0;
  std::size_t round_in_epoch_ = 0;
  std::size_t rounds_run_ = 0;
  std::vector<EpochHandoff> handoffs_;
  std::vector<double> transition_wall_ms_;
};

}  // namespace cyc::epoch
