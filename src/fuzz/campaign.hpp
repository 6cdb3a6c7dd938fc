// Fuzz campaign: sample a budget of threat-model-bounded specs, run
// every (spec, seed) point through the invariant harness, and shrink
// each failure to a minimal replayable repro.
//
// The whole campaign is a pure function of (seed, budget): specs
// are generated from index-forked rng streams, points run on the
// parallel_sweep pool with index-ordered results, and failures shrink
// sequentially — so the JSON artifact is byte-identical across runs and
// thread counts, the same contract the scenario matrix keeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/shrinker.hpp"

namespace cyc::fuzz {

struct CampaignOptions {
  std::uint64_t seed = 1;    ///< campaign root seed
  std::size_t budget = 200;  ///< specs to sample and execute
  unsigned threads = 0;      ///< sweep pool size (0 = hardware)
  ShrinkOptions shrink;
};

struct FuzzFailure {
  std::size_t index = 0;            ///< spec index within the campaign
  harness::ScenarioSpec original;   ///< as generated
  std::vector<harness::Violation> violations;  ///< from the original run
  ShrinkResult shrunk;              ///< vs violations.front().invariant
};

struct CampaignResult {
  std::size_t specs_run = 0;
  std::size_t points_run = 0;  ///< (spec, seed) executions
  std::vector<FuzzFailure> failures;

  bool all_green() const { return failures.empty(); }
};

CampaignResult run_campaign(const CampaignOptions& options);

/// Deterministic JSON artifact: campaign configuration, per-spec
/// verdicts, and for each failure the original + shrunk specs.
std::string campaign_json(const CampaignOptions& options,
                          const CampaignResult& result);

/// Write one replayable JSON spec per failure into `dir` (created if
/// missing) — the shrunk repro, named after the failing spec and loaded
/// back with `scenario_runner --spec`. Returns the paths written.
/// Throws std::runtime_error on I/O failure.
std::vector<std::string> write_failure_corpus(const CampaignResult& result,
                                              const std::string& dir);

}  // namespace cyc::fuzz
