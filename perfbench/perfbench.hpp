// Repository benchmark: workload definitions, the episode driver and the
// per-layer replays, all built on the public entry points of the library
// (protocol::Engine, epoch::EpochManager, harness::InvariantChecker,
// obs::Observer and the ledger / crypto / net free functions).
//
// An *episode* is one freshly constructed Engine (or EpochManager plus
// InvariantChecker) driven through a fixed number of rounds. A run of one
// workload cycles through a fixed list of episode seeds derived from the
// workload seed until its time budget is spent; the first pass over the
// list yields the deterministic metrics, every later pass must reproduce
// them exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "epoch/handoff.hpp"
#include "epoch/manager.hpp"
#include "ledger/block.hpp"
#include "net/stats.hpp"
#include "obs/observer.hpp"
#include "protocol/engine.hpp"

namespace cyc::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Raised when an output fails a correctness or determinism gate.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Workload {
  protocol::Params params;  ///< params.seed is overwritten per episode
  protocol::AdversaryConfig adversary;
  protocol::EngineOptions options;
  /// Set: drive through EpochManager with an InvariantChecker on every
  /// round and boundary. Unset: a bare Engine.
  std::optional<epoch::EpochConfig> epochs;
  std::size_t rounds = 0;         ///< rounds per episode (bare Engine)
  std::size_t episode_seeds = 1;  ///< distinct episodes per pass
  /// Whether the deterministic metrics are compared across engine_threads
  /// 1 and options.engine_threads (the first round of the first episode).
  bool cross_thread_check = false;
};

/// The three named workloads; throws std::invalid_argument on any other
/// name.
Workload make_workload(const std::string& name);

/// Seed of episode `index` of a run with workload seed `seed`.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t index);

constexpr std::size_t kPhaseSlots = static_cast<std::size_t>(net::Phase::kCount);

/// Deterministic protocol outcome of one round; repeats of one episode
/// must reproduce it bit for bit.
struct RoundCounters {
  std::uint64_t committed = 0;
  std::uint64_t submitted = 0;  ///< fresh transactions entering this round
  std::uint64_t refused = 0;    ///< mempool drops + source exhausted
  std::uint64_t invalid_committed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t backlog = 0;
  std::uint64_t source_shortfall = 0;  ///< cumulative
  std::array<std::uint64_t, kPhaseSlots> phase_msgs{};
  std::array<std::uint64_t, kPhaseSlots> phase_bytes{};
  std::vector<double> latencies;  ///< arrival -> commit, simulated Delta

  bool operator==(const RoundCounters&) const = default;
};

/// Host-time cost of one round.
struct RoundTiming {
  double wall_ms = 0;       ///< everything the round pays (below summed)
  double run_round_ms = 0;  ///< Engine / EpochManager::run_round
  double check_ms = 0;      ///< InvariantChecker::check_round + boundary audit
  double boundary_ms = 0;   ///< epoch boundary inside run_round (0 if none)
};

/// One benchmark-side span (steady clock, microseconds since run start).
struct Span {
  std::string name;
  std::uint64_t episode = 0;
  std::uint64_t round = 0;
  double start_us = 0;
  double dur_us = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void add(std::string name, std::uint64_t episode, std::uint64_t round,
           Clock::time_point begin, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer counters of one episode (`certs` needs an attached observer).
struct LayerCounters {
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t verify_hits = 0;
  std::uint64_t verify_misses = 0;
  std::uint64_t certs = 0;
  std::uint64_t migrated_outputs = 0;
};

struct Episode {
  std::uint64_t seed = 0;
  double setup_s = 0;
  std::vector<RoundCounters> counters;
  std::vector<RoundTiming> timings;
  LayerCounters layers;
  std::uint64_t arrivals_during_recovery = 0;
};

/// Called once the rounds are done, while the engine is still alive.
using EpisodeHook =
    std::function<void(const protocol::Engine&,
                       const std::vector<ledger::Block>& blocks,
                       const std::vector<epoch::EpochHandoff>& handoffs)>;

struct EpisodeOptions {
  std::uint64_t index = 0;           ///< position in the run (span labels)
  std::size_t max_rounds = 0;        ///< 0 = the workload's full episode
  unsigned engine_threads = 0;       ///< 0 = the workload's own setting
  obs::Observer* observer = nullptr;  ///< attach for a traced episode
  SpanLog* spans = nullptr;
  EpisodeHook at_end;  ///< blocks are retained only when this is set
};

/// Run one episode; throws GateFailure on an invalid commit or an
/// invariant violation.
Episode run_episode(const Workload& workload, std::uint64_t seed,
                    const EpisodeOptions& options);

// --- per-layer replays (layers.cpp) ---------------------------------------

struct LedgerReplay {
  double block_serde_us = 0;  ///< serialize + deserialize + body_matches, per block
  double verify_tx_us = 0;    ///< per transaction
  double utxo_apply_us = 0;   ///< per transaction (all shard stores)
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
};

/// Replay `blocks` through verify_tx and UtxoStore::apply on a mirror built
/// from the workload generator's genesis (re-homing accounts at each
/// recorded rebalance), and time Block serde on the same blocks. Throws
/// GateFailure when a replayed transaction fails verification or the
/// mirror's digests differ from engine.shard_state().
LedgerReplay replay_ledger(const protocol::Engine& engine,
                           const std::vector<ledger::Block>& blocks,
                           const std::vector<epoch::EpochHandoff>& handoffs,
                           SpanLog* spans, std::uint64_t episode);

struct CryptoTiming {
  double sign_us = 0;
  double verify_us = 0;
};
/// Schnorr sign and uncached verify over seed-derived keys and messages.
CryptoTiming time_crypto(std::uint64_t seed, SpanLog* spans);

/// Per-message dispatch cost of a standalone SimNet with `nodes` nodes,
/// driven with `msgs[p]` messages of mean wire size `bytes[p] / msgs[p]`
/// for each phase p.
double time_dispatch_us_per_msg(
    std::size_t nodes, const std::array<std::uint64_t, kPhaseSlots>& msgs,
    const std::array<std::uint64_t, kPhaseSlots>& bytes, std::uint64_t seed,
    SpanLog* spans);

}  // namespace cyc::perfbench
