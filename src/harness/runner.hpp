// Seed-sweep scenario runner: executes a scenario matrix on the
// support/parallel.hpp pool — one deterministic, single-threaded Engine
// per (scenario, seed) point, per the §III-B simulator contract — runs
// the full invariant suite after every round, and renders a
// machine-readable JSON artifact of per-point outcomes + verdicts.
//
// The artifact is a pure function of the scenario list: it contains no
// wall-clock or host-dependent data, so two runs of the same matrix are
// byte-identical. That property is itself asserted by the tier-1 tests
// and scripts/run_scenarios.sh.
#pragma once

#include <string>
#include <vector>

#include "harness/invariants.hpp"
#include "harness/scenario.hpp"
#include "net/stats.hpp"
#include "obs/observer.hpp"

namespace cyc::harness {

/// Per-point trace emission (src/obs/). When given to run_matrix, every
/// (scenario, seed) job records a simulated-time trace + metrics registry
/// and writes `<dir>/<sanitized-scenario>-s<seed>.trace.json`. Traces are
/// pure functions of (spec, seed): byte-identical across runs and thread
/// counts. They carry simulated time only; wall-clock profiles come from
/// perfbench, which times one workload at a time.
struct TraceOptions {
  std::string dir;
};

/// File name (no directory) a traced point is written under; scenario
/// names are sanitized to [A-Za-z0-9._-].
std::string trace_file_name(const std::string& scenario, std::uint64_t seed);

struct ScenarioOutcome {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t rounds = 0;               ///< total rounds run (all epochs)
  std::uint64_t committed = 0;          ///< total txs across all rounds
  std::uint64_t offered = 0;
  std::uint64_t cross_committed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t invalid_committed = 0;  ///< safety violations (must be 0)
  std::uint64_t carryover = 0;          ///< Remaining TX List at exit
  std::uint64_t chain_height = 0;
  double total_fees = 0.0;
  // Epoch lifecycle (all zero / empty on single-epoch scenarios).
  std::uint64_t epochs = 1;             ///< epochs executed
  std::uint64_t boundaries = 0;         ///< EpochHandoff records audited
  std::uint64_t members_joined = 0;     ///< identities admitted via PoW
  std::uint64_t members_retired = 0;
  std::string last_handoff_digest;      ///< hex, audit anchor ("" if none)
  /// Injected network faults, summed over every round of the run. All
  /// zero on fault-free points (and then omitted from the artifact, so
  /// fault-free artifacts are unchanged).
  net::FaultStats faults;
  std::vector<Violation> violations;
};

struct MatrixResult {
  std::vector<ScenarioOutcome> outcomes;

  std::size_t total_violations() const {
    std::size_t total = 0;
    for (const auto& o : outcomes) total += o.violations.size();
    return total;
  }
  bool all_green() const { return total_violations() == 0; }
};

/// Run one (scenario, seed) point: a fresh Engine driven by an
/// epoch::EpochManager (every spec, one epoch included), events applied at
/// their rounds, invariants checked after every round. With `observer`, the
/// engine records spans/metrics into it (the thread-local verify cache is
/// cleared first so cache-hit metrics are thread-placement invariant).
ScenarioOutcome run_scenario(const ScenarioSpec& spec, std::uint64_t seed,
                             obs::Observer* observer = nullptr);

/// Run every (scenario, seed) point of the matrix concurrently; results
/// are collected in matrix order regardless of scheduling. With `trace`,
/// each point additionally writes its own trace file into `trace->dir`
/// (per-point files, so the artifact set is thread-count independent).
MatrixResult run_matrix(const std::vector<ScenarioSpec>& scenarios,
                        unsigned threads = 0,
                        const TraceOptions* trace = nullptr);

/// Deterministic JSON artifact (specs echoed + outcomes + verdicts).
std::string matrix_json(const std::vector<ScenarioSpec>& scenarios,
                        const MatrixResult& result);

}  // namespace cyc::harness
