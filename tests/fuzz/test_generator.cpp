// Scenario generator: every sampled spec stays inside the §III threat
// model and the documented bounds, sampling is deterministic in the
// stream, and the spec domain is diverse enough to be worth fuzzing.
#include <gtest/gtest.h>

#include <set>

#include "fuzz/generator.hpp"

namespace cyc::fuzz {
namespace {

using harness::ScenarioSpec;

TEST(FuzzGenerator, SpecsRespectThreatModelBounds) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    rng::Stream rng(seed);
    const ScenarioSpec spec = generate_spec(rng);

    // Adversary below the honest-majority bound; mixes never contain
    // "honest" (that is not a corruption).
    EXPECT_LT(spec.adversary.corrupt_fraction, 1.0 / 3.0);
    EXPECT_LE(spec.adversary.corrupt_fraction, kMaxCorruptFraction);
    for (const auto& entry : spec.adversary.mix) {
      EXPECT_NE(entry.behavior, protocol::Behavior::kHonest);
      EXPECT_GT(entry.weight, 0.0);
    }
    if (spec.adversary.corrupt_fraction == 0.0) {
      EXPECT_TRUE(spec.adversary.mix.empty());
    } else {
      EXPECT_FALSE(spec.adversary.mix.empty());
    }

    // Valid committee shapes and legal delay regimes.
    EXPECT_GE(spec.params.m, 2u);
    EXPECT_GE(spec.params.c, 6u);
    EXPECT_LE(spec.params.lambda, spec.params.c);
    EXPECT_GE(spec.params.referee_size, 5u);
    EXPECT_LE(spec.params.capacity_min, spec.params.capacity_max);
    EXPECT_GE(spec.params.delays.gamma, spec.params.delays.delta);
    EXPECT_GE(spec.params.delays.jitter, 0.0);

    // Bounded rounds / epochs / churn / seeds / events.
    EXPECT_GE(spec.rounds, 1u);
    EXPECT_LE(spec.rounds, kMaxRounds);
    EXPECT_GE(spec.epochs, 1u);
    EXPECT_LE(spec.epochs, kMaxEpochs);
    EXPECT_GE(spec.churn_rate, 0.0);
    EXPECT_LE(spec.churn_rate, kMaxChurnRate);
    if (spec.churn_rate > 0.0) {
      EXPECT_GT(spec.params.standby, 0u);
    }
    EXPECT_GE(spec.seeds.size(), 1u);
    EXPECT_LE(spec.seeds.size(), kMaxSeeds);

    // Per-kind event budgets: corruption events spend the §III-C budget,
    // fault-fabric events ride their own bounds (each crash-restart pair
    // contributes one kCrash and one kRestart; each partition may bring
    // an explicit heal).
    std::size_t corruptions = 0, partitions = 0, heals = 0, crashes = 0,
                restarts = 0, blackouts = 0;
    for (const auto& ev : spec.events) {
      using Kind = harness::ScenarioEvent::Kind;
      switch (ev.kind) {
        case Kind::kCorrupt: corruptions += 1; break;
        case Kind::kPartition: partitions += 1; break;
        case Kind::kHeal: heals += 1; break;
        case Kind::kCrash: crashes += 1; break;
        case Kind::kRestart: restarts += 1; break;
        case Kind::kBlackout: blackouts += 1; break;
      }
    }
    EXPECT_LE(corruptions, kMaxEvents);
    EXPECT_LE(partitions, kMaxPartitions);
    EXPECT_LE(heals, partitions);
    EXPECT_LE(crashes, kMaxCrashRestarts);
    EXPECT_EQ(restarts, crashes) << "crash-restart events come in pairs";
    EXPECT_LE(blackouts, kMaxBlackouts);

    // The probabilistic loss profile stays inside its ceiling.
    EXPECT_GE(spec.params.faults.drop, 0.0);
    EXPECT_LE(spec.params.faults.drop, kMaxDrop);

    // Event schedules stay legal: rounds inside the run, targets inside
    // the shape, behaviours are concrete corruptions, restarts trail
    // their crash far enough for the crash to have taken effect.
    for (const auto& ev : spec.events) {
      EXPECT_GE(ev.round, 1u);
      EXPECT_LE(ev.round, spec.rounds * spec.epochs);
      EXPECT_NE(ev.behavior, protocol::Behavior::kHonest);
      if (ev.kind == harness::ScenarioEvent::Kind::kRestart) {
        EXPECT_GE(ev.round, 3u);
      }
      if (ev.kind == harness::ScenarioEvent::Kind::kPartition ||
          ev.kind == harness::ScenarioEvent::Kind::kBlackout) {
        EXPECT_GE(ev.duration, 1u);
      }
      switch (ev.target) {
        case harness::ScenarioEvent::Target::kNode:
          EXPECT_LT(ev.node, spec.params.total_nodes());
          break;
        case harness::ScenarioEvent::Target::kLeaderOf:
          EXPECT_LT(ev.committee, spec.params.m);
          break;
        case harness::ScenarioEvent::Target::kRefereeAt:
          EXPECT_LT(ev.committee, spec.params.referee_size);
          break;
        case harness::ScenarioEvent::Target::kCommittee:
          EXPECT_LT(ev.committee, spec.params.m);
          break;
      }
    }
  }
}

TEST(FuzzGenerator, DeterministicPerStream) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    rng::Stream a(seed);
    rng::Stream b(seed);
    EXPECT_EQ(generate_spec(a).to_json_text(), generate_spec(b).to_json_text());
  }
}

TEST(FuzzGenerator, StreamsProduceDiverseSpecs) {
  std::set<std::string> encodings;
  bool saw_adversary = false;
  bool saw_events = false;
  bool saw_epochs = false;
  bool saw_honest = false;
  bool saw_partition = false;
  bool saw_restart = false;
  bool saw_lossy = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    rng::Stream rng(seed);
    const ScenarioSpec spec = generate_spec(rng);
    encodings.insert(spec.to_json_text());
    saw_adversary |= spec.adversary.corrupt_fraction > 0.0;
    saw_events |= !spec.events.empty();
    saw_epochs |= spec.epochs > 1;
    saw_honest |= spec.adversary.corrupt_fraction == 0.0;
    saw_lossy |= spec.params.faults.any();
    for (const auto& ev : spec.events) {
      saw_partition |= ev.kind == harness::ScenarioEvent::Kind::kPartition;
      saw_restart |= ev.kind == harness::ScenarioEvent::Kind::kRestart;
    }
  }
  EXPECT_GT(encodings.size(), 90u) << "sampling collapsed";
  EXPECT_TRUE(saw_adversary);
  EXPECT_TRUE(saw_events);
  EXPECT_TRUE(saw_epochs);
  EXPECT_TRUE(saw_honest);
  EXPECT_TRUE(saw_partition) << "fuzzer must sample the partition axis";
  EXPECT_TRUE(saw_restart) << "fuzzer must sample crash-restart pairs";
  EXPECT_TRUE(saw_lossy) << "fuzzer must sample probabilistic loss";
}

TEST(FuzzGenerator, FailureTailFilterIsLive) {
  // The filter the generator applies must reject what it claims to: a
  // narrow all-misvoting adversary on a small committee has a tail far
  // above the bound, while the honest baseline is exactly zero.
  EXPECT_GT(spec_failure_tail(23, 7, 7, 3, 6, 5), kMaxCommitteeFailure);
  EXPECT_EQ(spec_failure_tail(23, 0, 0, 3, 6, 5), 0.0);
  // Liveness term dominates when only part of the mix misvotes.
  EXPECT_GE(spec_failure_tail(23, 2, 7, 3, 6, 5),
            spec_failure_tail(23, 2, 2, 3, 6, 5));
}

}  // namespace
}  // namespace cyc::fuzz
