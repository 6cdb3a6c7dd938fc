// ScenarioSpec serde completeness: every field the programmatic builder
// can set must survive serialize -> parse -> serialize byte-identically,
// for hand-maxed specs, for the whole default matrix, and for randomized
// generator output — shrunk fuzz repros are only replayable because of
// this property.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/generator.hpp"
#include "harness/scenario.hpp"

namespace cyc::harness {
namespace {

void expect_byte_identical_roundtrip(const ScenarioSpec& spec) {
  const std::string once = spec.to_json_text();
  const ScenarioSpec parsed = ScenarioSpec::from_json_text(once);
  const std::string twice = parsed.to_json_text();
  EXPECT_EQ(once, twice) << "spec '" << spec.name
                         << "' does not round-trip byte-identically";
}

TEST(SpecRoundTrip, EveryBuilderFieldSurvives) {
  // Non-default value in *every* settable field, including the ones the
  // matrix never sweeps (seed, the phase schedule).
  ScenarioSpec spec;
  spec.name = "max/ed-out";
  spec.params.m = 5;
  spec.params.c = 7;
  spec.params.lambda = 4;
  spec.params.referee_size = 11;
  spec.params.txs_per_committee = 14;
  spec.params.cross_shard_fraction = 0.35;
  spec.params.invalid_fraction = 0.15;
  spec.params.users = 123;
  spec.params.capacity_min = 6;
  spec.params.capacity_max = 48;
  spec.params.standby = 9;
  spec.params.seed = 77;
  spec.params.delays.delta = 1.5;
  spec.params.delays.gamma = 6.5;
  spec.params.delays.jitter = 2.5;
  spec.params.config_duration = 9.0;
  spec.params.semicommit_duration = 25.0;
  spec.params.intra_duration = 31.0;
  spec.params.inter_duration = 41.0;
  spec.params.reputation_duration = 23.0;
  spec.params.selection_duration = 17.0;
  spec.params.block_duration = 25.0;
  spec.adversary.corrupt_fraction = 0.25;
  spec.adversary.forced_corrupt_leader_fraction = 0.5;
  spec.adversary.mix = {{protocol::Behavior::kImitator, 0.5},
                        {protocol::Behavior::kFramer, 2.0}};
  spec.options.recovery_enabled = false;
  spec.options.reputation_leader_selection = false;
  spec.options.extension_precommunication = true;
  spec.options.extension_parallel_blocks = true;
  spec.rounds = 5;
  spec.epochs = 3;
  spec.churn_rate = 0.2;
  spec.seeds = {3, 9, 27};
  spec.events.push_back({2, ScenarioEvent::Target::kLeaderOf, 0, 1,
                         protocol::Behavior::kEquivocator});
  spec.events.push_back({3, ScenarioEvent::Target::kNode, 12, 0,
                         protocol::Behavior::kCrash});
  spec.events.push_back({1, ScenarioEvent::Target::kRefereeAt, 0, 4,
                         protocol::Behavior::kFramer});

  expect_byte_identical_roundtrip(spec);

  // Field-by-field equality of the parsed spec (byte-identity alone
  // cannot catch a field missing from both serializer and parser).
  const ScenarioSpec parsed = ScenarioSpec::from_json_text(spec.to_json_text());
  EXPECT_EQ(parsed.params.seed, 77u);
  EXPECT_DOUBLE_EQ(parsed.params.delays.delta, 1.5);
  EXPECT_DOUBLE_EQ(parsed.params.config_duration, 9.0);
  EXPECT_DOUBLE_EQ(parsed.params.semicommit_duration, 25.0);
  EXPECT_DOUBLE_EQ(parsed.params.intra_duration, 31.0);
  EXPECT_DOUBLE_EQ(parsed.params.inter_duration, 41.0);
  EXPECT_DOUBLE_EQ(parsed.params.reputation_duration, 23.0);
  EXPECT_DOUBLE_EQ(parsed.params.selection_duration, 17.0);
  EXPECT_DOUBLE_EQ(parsed.params.block_duration, 25.0);
  EXPECT_FALSE(parsed.options.reputation_leader_selection);
  EXPECT_TRUE(parsed.options.extension_precommunication);
  EXPECT_TRUE(parsed.options.extension_parallel_blocks);
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[1].node, 12u);
  EXPECT_EQ(parsed.seeds, spec.seeds);
}

TEST(SpecRoundTrip, FaultFabricFieldsSurvive) {
  // The fault-fabric extension of the spec language: probabilistic link
  // faults in Params plus the partition / restart / blackout event kinds
  // with durations.
  ScenarioSpec spec;
  spec.name = "faults/maxed";
  spec.rounds = 5;
  spec.params.faults.drop = 0.1;
  spec.params.faults.duplicate = 0.05;
  spec.params.faults.reorder = 0.25;

  ScenarioEvent cut;
  cut.round = 2;
  cut.kind = ScenarioEvent::Kind::kPartition;
  cut.target = ScenarioEvent::Target::kCommittee;
  cut.committee = 1;
  cut.duration = 2;
  spec.events.push_back(cut);
  ScenarioEvent heal;
  heal.round = 3;
  heal.kind = ScenarioEvent::Kind::kHeal;
  spec.events.push_back(heal);
  ScenarioEvent crash;
  crash.round = 1;
  crash.kind = ScenarioEvent::Kind::kCrash;
  crash.target = ScenarioEvent::Target::kNode;
  crash.node = 9;
  spec.events.push_back(crash);
  ScenarioEvent back;
  back.round = 3;
  back.kind = ScenarioEvent::Kind::kRestart;
  back.target = ScenarioEvent::Target::kNode;
  back.node = 9;
  spec.events.push_back(back);
  ScenarioEvent dark;
  dark.round = 4;
  dark.kind = ScenarioEvent::Kind::kBlackout;
  dark.target = ScenarioEvent::Target::kLeaderOf;
  dark.committee = 0;
  dark.duration = 3;
  spec.events.push_back(dark);

  expect_byte_identical_roundtrip(spec);

  const ScenarioSpec parsed = ScenarioSpec::from_json_text(spec.to_json_text());
  EXPECT_DOUBLE_EQ(parsed.params.faults.drop, 0.1);
  EXPECT_DOUBLE_EQ(parsed.params.faults.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(parsed.params.faults.reorder, 0.25);
  ASSERT_EQ(parsed.events.size(), 5u);
  EXPECT_EQ(parsed.events[0].kind, ScenarioEvent::Kind::kPartition);
  EXPECT_EQ(parsed.events[0].target, ScenarioEvent::Target::kCommittee);
  EXPECT_EQ(parsed.events[0].duration, 2u);
  EXPECT_EQ(parsed.events[1].kind, ScenarioEvent::Kind::kHeal);
  EXPECT_EQ(parsed.events[2].kind, ScenarioEvent::Kind::kCrash);
  EXPECT_EQ(parsed.events[3].kind, ScenarioEvent::Kind::kRestart);
  EXPECT_EQ(parsed.events[3].node, 9u);
  EXPECT_EQ(parsed.events[4].kind, ScenarioEvent::Kind::kBlackout);
  EXPECT_EQ(parsed.events[4].duration, 3u);

  // Legacy encoding stability: a spec without probabilistic faults must
  // not emit the fault fields at all (old documents stay byte-stable),
  // and a corrupt event must not emit "kind" or "duration".
  ScenarioSpec legacy;
  legacy.events.push_back({2, ScenarioEvent::Target::kLeaderOf, 0, 1,
                           protocol::Behavior::kEquivocator});
  const std::string text = legacy.to_json_text();
  EXPECT_EQ(text.find("fault_drop"), std::string::npos);
  EXPECT_EQ(text.find("\"kind\""), std::string::npos);
  EXPECT_EQ(text.find("\"duration\""), std::string::npos);
}

TEST(SpecRoundTrip, OpenLoopFieldsSurvive) {
  ScenarioSpec spec;
  spec.name = "load/maxed";
  spec.rounds = 4;
  spec.params.arrival_rate = 0.25;
  spec.params.zipf_s = 1.3;
  spec.params.mempool_cap = 48;

  expect_byte_identical_roundtrip(spec);

  const ScenarioSpec parsed = ScenarioSpec::from_json_text(spec.to_json_text());
  EXPECT_DOUBLE_EQ(parsed.params.arrival_rate, 0.25);
  EXPECT_DOUBLE_EQ(parsed.params.zipf_s, 1.3);
  EXPECT_EQ(parsed.params.mempool_cap, 48u);

  // Legacy encoding stability: a closed-loop spec (arrival_rate 0) must
  // not emit any of the open-loop fields, even when the inert knobs hold
  // non-default values — old documents stay byte-stable.
  ScenarioSpec legacy;
  legacy.params.zipf_s = 1.4;
  legacy.params.mempool_cap = 8;
  const std::string text = legacy.to_json_text();
  EXPECT_EQ(text.find("arrival_rate"), std::string::npos);
  EXPECT_EQ(text.find("zipf_s"), std::string::npos);
  EXPECT_EQ(text.find("mempool_cap"), std::string::npos);
  const ScenarioSpec defaults;
  EXPECT_EQ(text, defaults.to_json_text());
}

TEST(SpecRoundTrip, OpenLoopFuzzAxesRoundTrip) {
  // The opt-in fuzz axes emit open-loop specs whose short-decimal grids
  // must round-trip like every other generated field.
  fuzz::FuzzBounds bounds;
  bounds.openloop_fraction = 1.0;
  bool saw_openloop = false;
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    rng::Stream rng(seed);
    ScenarioSpec spec = fuzz::generate_spec(rng, bounds);
    spec.name = "roundtrip/ol" + std::to_string(seed);
    saw_openloop = saw_openloop || spec.params.arrival_rate > 0.0;
    expect_byte_identical_roundtrip(spec);
  }
  EXPECT_TRUE(saw_openloop);
}

TEST(SpecRoundTrip, DefaultAndDefaultMatrixSpecs) {
  const ScenarioSpec defaults;
  expect_byte_identical_roundtrip(defaults);
  for (const ScenarioSpec& spec : default_matrix()) {
    expect_byte_identical_roundtrip(spec);
  }
}

TEST(SpecRoundTrip, RandomizedGeneratorSpecs) {
  // The fuzzer's whole output domain must round-trip: its shrunk repros
  // are written to disk and replayed via scenario_runner --spec.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    rng::Stream rng(seed);
    ScenarioSpec spec = fuzz::generate_spec(rng);
    spec.name = "roundtrip/" + std::to_string(seed);
    expect_byte_identical_roundtrip(spec);
  }
}

TEST(SpecRoundTrip, CorpusFilesAreCanonical) {
  // tests/corpus/README.md promises the canonical encoding: each checked-in
  // spec is its own parse -> encode, plus one trailing newline.
  const auto dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "corpus";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    std::ostringstream text;
    text << in.rdbuf();
    const std::string encoded =
        ScenarioSpec::from_json_text(text.str()).to_json_text();
    EXPECT_EQ(text.str(), encoded + "\n") << entry.path();
    files += 1;
  }
  EXPECT_GE(files, 6u);
}

}  // namespace
}  // namespace cyc::harness
