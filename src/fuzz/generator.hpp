// Scenario fuzzer: threat-model-bounded random ScenarioSpec sampling.
//
// The harness's hand-written matrix sweeps a fixed grid; the paper's
// security argument quantifies over *all* adversarial schedules inside
// the §III threat model. The generator samples that space — committee
// shapes, delay regimes, adversary mixes, workload knobs, epoch
// lifecycles and mid-run ScenarioEvent schedules — from a seeded
// rng::Stream, so a campaign is reproducible from (seed, index) alone.
//
// Every sampled spec is kept inside the threat model: the adversary
// fraction stays below the honest-majority bound, and shapes whose
// fair-draw corrupt-majority tail (exact hypergeometric, Eq. 3 — the
// same computation the epoch invariants gate on) is non-negligible are
// rejected and resampled. A red invariant on a generated spec therefore
// indicts the protocol, not the scenario.
#pragma once

#include "harness/scenario.hpp"
#include "support/rng.hpp"

namespace cyc::fuzz {

// Sampling bounds (§III threat model plus wall-clock caps), the same for
// every campaign. The grids in generator.cpp never exceed them.

/// Genesis corruption ceiling; strictly below the 1/3 bound (§III-C).
inline constexpr double kMaxCorruptFraction = 0.30;
/// Reject a sampled shape when the per-round corrupt-majority tail —
/// m * P[committee majority misvotes] + P[C_R majority misvotes], exact
/// hypergeometric over the misvoting corrupt count plus every scheduled
/// event corruption — exceeds this. Keeps tail events (which the checker
/// would rightly flag as safety violations) vanishingly unlikely across
/// a whole campaign.
inline constexpr double kMaxCommitteeFailure = 1e-4;
inline constexpr std::size_t kMaxRounds = 4;  ///< per epoch
inline constexpr std::size_t kMaxEpochs = 3;
inline constexpr double kMaxChurnRate = 0.25;  ///< per boundary
inline constexpr std::size_t kMaxEvents = 3;  ///< mid-run corruption schedule
inline constexpr std::size_t kMaxSeeds = 2;   ///< executions per spec
/// Fault-fabric axes (src/net/faults.*): partitions cut whole committees
/// (the quorum-relevant island), crash-restart pairs probe the catch-up
/// lifecycle, blackouts silence individual nodes, and a probabilistic
/// profile losses the wide-area link classes. Sampled schedules are
/// legal by construction: restarts trail their crash by two rounds and
/// partitions heal via duration or an explicit heal — and they stay
/// legal under ddmin (a restart without its crash is a no-op; a
/// partition without its heal expires on its own).
inline constexpr std::size_t kMaxPartitions = 1;
inline constexpr std::size_t kMaxCrashRestarts = 1;
inline constexpr std::size_t kMaxBlackouts = 1;
inline constexpr double kMaxDrop = 0.1;  ///< per-message loss ceiling

/// Sample one spec. Deterministic in the rng state; the caller names the
/// spec (the campaign uses "fuzz/s<seed>-<index>"). All floating-point
/// fields come from short decimal grids so the spec round-trips
/// byte-identically through its JSON encoding.
harness::ScenarioSpec generate_spec(rng::Stream& rng);

/// The per-round fair-draw failure tail the generator filters on, for a
/// universe of `n` active seats split into m committees of size c plus
/// the referee committee: the safety tail (a group majority of
/// `misvoters`, who can vote an invalid transaction through) plus the
/// liveness tail (a group majority drawn from all `corrupt` seats, who
/// can silence a committee or C_R and stall recovery).
double spec_failure_tail(std::uint32_t n, std::uint32_t misvoters,
                         std::uint32_t corrupt, std::uint32_t m,
                         std::uint32_t c, std::uint32_t referee_size);

}  // namespace cyc::fuzz
