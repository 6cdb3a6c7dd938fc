// ScenarioSpec: JSON parsing, defaults, round trip, matrix builder.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace cyc::harness {
namespace {

TEST(ScenarioSpec, DefaultsWhenFieldsAbsent) {
  const auto specs = ScenarioSpec::list_from_json(R"({"name":"bare"})");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioSpec& spec = specs[0];
  EXPECT_EQ(spec.name, "bare");
  const protocol::Params defaults;
  EXPECT_EQ(spec.params.m, defaults.m);
  EXPECT_EQ(spec.params.c, defaults.c);
  EXPECT_EQ(spec.rounds, 2u);
  ASSERT_EQ(spec.seeds.size(), 1u);
  EXPECT_TRUE(spec.events.empty());
  EXPECT_TRUE(spec.options.recovery_enabled);
}

TEST(ScenarioSpec, ParsesFullSpec) {
  const auto specs = ScenarioSpec::list_from_json(R"({
    "name": "full",
    "params": {"m": 4, "c": 10, "lambda": 2, "referee_size": 7,
               "txs_per_committee": 12, "cross_shard_fraction": 0.35,
               "invalid_fraction": 0.05, "capacity_min": 8,
               "capacity_max": 32, "gamma": 7.5, "jitter": 2.0},
    "adversary": {"corrupt_fraction": 0.2,
                  "forced_corrupt_leader_fraction": 0.5,
                  "mix": [{"behavior": "crash", "weight": 2.0},
                          {"behavior": "inverse-voter", "weight": 1.0}]},
    "options": {"recovery_enabled": false},
    "rounds": 3,
    "seeds": [7, 8, 9],
    "events": [{"round": 2, "target": "leader-of", "committee": 1,
                "behavior": "equivocator"},
               {"round": 1, "target": "node", "node": 5,
                "behavior": "lazy-voter"},
               {"round": 3, "target": "referee-at", "committee": 0,
                "behavior": "crash"}]
  })");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioSpec& spec = specs[0];
  EXPECT_EQ(spec.params.m, 4u);
  EXPECT_EQ(spec.params.c, 10u);
  EXPECT_EQ(spec.params.referee_size, 7u);
  EXPECT_DOUBLE_EQ(spec.params.cross_shard_fraction, 0.35);
  EXPECT_EQ(spec.params.capacity_min, 8u);
  EXPECT_DOUBLE_EQ(spec.params.delays.gamma, 7.5);
  EXPECT_DOUBLE_EQ(spec.adversary.corrupt_fraction, 0.2);
  ASSERT_EQ(spec.adversary.mix.size(), 2u);
  EXPECT_EQ(spec.adversary.mix[0].behavior, protocol::Behavior::kCrash);
  EXPECT_DOUBLE_EQ(spec.adversary.mix[0].weight, 2.0);
  EXPECT_FALSE(spec.options.recovery_enabled);
  EXPECT_EQ(spec.rounds, 3u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 8, 9}));
  ASSERT_EQ(spec.events.size(), 3u);
  EXPECT_EQ(spec.events[0].target, ScenarioEvent::Target::kLeaderOf);
  EXPECT_EQ(spec.events[0].committee, 1u);
  EXPECT_EQ(spec.events[0].behavior, protocol::Behavior::kEquivocator);
  EXPECT_EQ(spec.events[1].target, ScenarioEvent::Target::kNode);
  EXPECT_EQ(spec.events[1].node, 5u);
  EXPECT_EQ(spec.events[2].target, ScenarioEvent::Target::kRefereeAt);
}

TEST(ScenarioSpec, ParsesScenarioListForms) {
  const auto array_form =
      ScenarioSpec::list_from_json(R"([{"name":"a"},{"name":"b"}])");
  ASSERT_EQ(array_form.size(), 2u);
  EXPECT_EQ(array_form[0].name, "a");
  EXPECT_EQ(array_form[1].name, "b");

  const auto wrapped =
      ScenarioSpec::list_from_json(R"({"scenarios":[{"name":"c"}]})");
  ASSERT_EQ(wrapped.size(), 1u);
  EXPECT_EQ(wrapped[0].name, "c");
}

TEST(ScenarioSpec, RejectsInvalidInput) {
  EXPECT_THROW(ScenarioSpec::list_from_json("[{]"), support::JsonParseError);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"rounds": 0})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"seeds": []})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(
                   R"({"adversary":{"mix":[{"behavior":"nope"}]}})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(
                   R"({"events":[{"target":"galaxy"}]})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"scenarios": []})"),
               std::runtime_error);
  // Negative values for unsigned fields are diagnosed, not cast.
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"seeds": [-1]})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"params": {"m": -3}})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(
                   R"({"events":[{"round":1,"node":-2}]})"),
               std::runtime_error);
  // A present key must hold its field's type, integer fields take only
  // integral values, and unknown keys are diagnosed instead of ignored;
  // each error names the offending key.
  const std::pair<const char*, const char*> malformed[] = {
      {R"({"rounds":"5"})", "'rounds'"},
      {R"({"name":5})", "'name'"},
      {R"({"params":{"m":2.5}})", "'m'"},
      {R"({"params":{"rebalance":1}})", "'rebalance'"},
      {R"({"seeds":[1.5]})", "'seeds'"},
      {R"({"events":[{"round":"3"}]})", "'round'"},
      {R"({"params":{"fault_dorp":0.1}})", "'fault_dorp'"},
  };
  for (const auto& [text, key] : malformed) {
    std::string error;
    try {
      ScenarioSpec::list_from_json(text);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find(key), std::string::npos) << text << ": " << error;
  }
}

TEST(ScenarioSpec, JsonRoundTrip) {
  ScenarioSpec spec;
  spec.name = "round-trip";
  spec.params.m = 5;
  spec.params.cross_shard_fraction = 0.45;
  spec.params.delays.jitter = 2.5;
  spec.adversary.corrupt_fraction = 0.3;
  spec.adversary.mix = {{protocol::Behavior::kConcealer, 1.5}};
  spec.options.recovery_enabled = false;
  spec.rounds = 4;
  spec.seeds = {11, 12};
  spec.events.push_back({2, ScenarioEvent::Target::kLeaderOf, 0, 3,
                         protocol::Behavior::kCommitForger});

  support::JsonWriter w;
  spec.to_json(w);
  const auto parsed = ScenarioSpec::from_json(support::JsonValue::parse(w.str()));
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.params.m, spec.params.m);
  EXPECT_DOUBLE_EQ(parsed.params.cross_shard_fraction,
                   spec.params.cross_shard_fraction);
  EXPECT_DOUBLE_EQ(parsed.params.delays.jitter, spec.params.delays.jitter);
  EXPECT_DOUBLE_EQ(parsed.adversary.corrupt_fraction,
                   spec.adversary.corrupt_fraction);
  ASSERT_EQ(parsed.adversary.mix.size(), 1u);
  EXPECT_EQ(parsed.adversary.mix[0].behavior, protocol::Behavior::kConcealer);
  EXPECT_EQ(parsed.options.recovery_enabled, false);
  EXPECT_EQ(parsed.rounds, spec.rounds);
  EXPECT_EQ(parsed.seeds, spec.seeds);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].target, ScenarioEvent::Target::kLeaderOf);
  EXPECT_EQ(parsed.events[0].committee, 3u);
  EXPECT_EQ(parsed.events[0].behavior, protocol::Behavior::kCommitForger);
}

TEST(ScenarioSpec, ParsesEpochFields) {
  const auto specs = ScenarioSpec::list_from_json(R"({
    "name": "epochal",
    "params": {"m": 3, "c": 9, "standby": 8},
    "rounds": 2,
    "epochs": 3,
    "churn_rate": 0.2
  })");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].epochs, 3u);
  EXPECT_DOUBLE_EQ(specs[0].churn_rate, 0.2);
  EXPECT_EQ(specs[0].params.standby, 8u);
  // Defaults: one epoch, no churn, no standby pool.
  const auto bare = ScenarioSpec::list_from_json(R"({"name":"bare"})");
  EXPECT_EQ(bare[0].epochs, 1u);
  EXPECT_DOUBLE_EQ(bare[0].churn_rate, 0.0);
  EXPECT_EQ(bare[0].params.standby, 0u);
}

TEST(ScenarioSpec, RejectsInvalidEpochFields) {
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"epochs": 0})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"churn_rate": 1.5})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"churn_rate": -0.1})"),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::list_from_json(R"({"params":{"standby":-4}})"),
               std::runtime_error);
}

TEST(ScenarioSpec, EpochFieldsRoundTrip) {
  ScenarioSpec spec;
  spec.name = "epoch-rt";
  spec.params.standby = 6;
  spec.rounds = 2;
  spec.epochs = 4;
  spec.churn_rate = 0.15;
  support::JsonWriter w;
  spec.to_json(w);
  const auto parsed =
      ScenarioSpec::from_json(support::JsonValue::parse(w.str()));
  EXPECT_EQ(parsed.epochs, 4u);
  EXPECT_DOUBLE_EQ(parsed.churn_rate, 0.15);
  EXPECT_EQ(parsed.params.standby, 6u);
}

TEST(ScenarioMatrix, CrossesEveryAxis) {
  MatrixAxes axes;
  axes.base.m = 2;
  axes.seeds = {1, 2, 3};
  axes.adversaries = {{"a", {}}, {"b", {}}};
  axes.delays = {{"d1", {}}, {"d2", {}}};
  axes.cross_shard_fractions = {0.1, 0.2};
  axes.capacities = {{64, 64}, {4, 16}, {8, 8}};
  const auto matrix = build_matrix(axes);
  EXPECT_EQ(matrix.size(), 2u * 2u * 2u * 3u);
  // Every scenario keeps the full seed list and encodes its axes.
  for (const auto& spec : matrix) {
    EXPECT_EQ(spec.seeds.size(), 3u);
    EXPECT_NE(spec.name.find('/'), std::string::npos);
  }
  // Names are unique.
  std::set<std::string> names;
  for (const auto& spec : matrix) names.insert(spec.name);
  EXPECT_EQ(names.size(), matrix.size());
}

TEST(ScenarioMatrix, EmptyAxesFallBackToBase) {
  MatrixAxes axes;
  axes.base.cross_shard_fraction = 0.33;
  const auto matrix = build_matrix(axes);
  ASSERT_EQ(matrix.size(), 1u);
  EXPECT_DOUBLE_EQ(matrix[0].params.cross_shard_fraction, 0.33);
  // The shape and epoch count come from the base, with no name segment.
  EXPECT_EQ(matrix[0].params.m, axes.base.m);
  EXPECT_EQ(matrix[0].epochs, 1u);
  EXPECT_EQ(matrix[0].name.find("/m"), std::string::npos);
  EXPECT_EQ(matrix[0].name.find("/e"), std::string::npos);
}

TEST(ScenarioMatrix, DefaultMatrixShape) {
  const auto matrix = default_matrix();
  // 3 adversary mixes x 2 delay regimes x 2 cross fractions x 2 capacity
  // skews + 2 churn scenarios + committee-shape + high-invalid + 3 fault-
  // fabric scenarios (partition-heal, crash-restart, lossy links) +
  // multi-epoch + open-loop sustained load; 3 seeds each.
  EXPECT_EQ(matrix.size(), 33u);
  std::size_t points = 0;
  for (const auto& spec : matrix) {
    points += spec.seeds.size();
    EXPECT_EQ(spec.seeds.size(), 3u) << spec.name;
  }
  EXPECT_EQ(points, 99u);
  // The crossed axes run 3 rounds (ROADMAP growth item).
  EXPECT_EQ(matrix.front().rounds, 3u);
  bool has_events = false;
  bool has_epochs = false;
  bool has_shape = false;
  bool has_high_invalid = false;
  bool has_partition = false;
  bool has_restart = false;
  bool has_lossy = false;
  bool has_openloop = false;
  for (const auto& spec : matrix) {
    has_events |= !spec.events.empty();
    has_epochs |= spec.epochs >= 3 && spec.churn_rate > 0.0;
    has_shape |= spec.params.m != matrix.front().params.m ||
                 spec.params.c != matrix.front().params.c;
    has_high_invalid |=
        spec.params.invalid_fraction > matrix.front().params.invalid_fraction;
    has_lossy |= spec.params.faults.any();
    has_openloop |= spec.params.arrival_rate > 0.0;
    for (const auto& ev : spec.events) {
      has_partition |= ev.kind == ScenarioEvent::Kind::kPartition;
      has_restart |= ev.kind == ScenarioEvent::Kind::kRestart;
    }
  }
  EXPECT_TRUE(has_events) << "default matrix must exercise mid-run churn";
  EXPECT_TRUE(has_epochs)
      << "default matrix must include a multi-epoch churn point";
  EXPECT_TRUE(has_shape) << "default matrix must sweep the committee shape";
  EXPECT_TRUE(has_high_invalid)
      << "default matrix must include a high invalid-fraction point";
  EXPECT_TRUE(has_partition)
      << "default matrix must include a partition-heal point";
  EXPECT_TRUE(has_restart)
      << "default matrix must include a crash-restart point";
  EXPECT_TRUE(has_lossy) << "default matrix must include a lossy-link point";
  EXPECT_TRUE(has_openloop)
      << "default matrix must include an open-loop sustained-load point";
}

TEST(ScenarioSpec, RejectsZeroCapacityMempoolUnderLoad) {
  // mempool_cap 0 with an open-loop source would silently drop every
  // arrival — the spec parser refuses it up front, mirroring the
  // engine's own construction-time sanity check.
  EXPECT_THROW(ScenarioSpec::list_from_json(
                   R"({"params": {"arrival_rate": 0.5, "mempool_cap": 0}})"),
               std::runtime_error);
  // Cap 0 stays legal with the source off (closed-loop runs never
  // consult the mempools), and any positive cap under load parses fine.
  EXPECT_NO_THROW(
      ScenarioSpec::list_from_json(R"({"params": {"mempool_cap": 0}})"));
  EXPECT_NO_THROW(ScenarioSpec::list_from_json(
      R"({"params": {"arrival_rate": 0.5, "mempool_cap": 8}})"));
}

TEST(ScenarioSpec, RebalanceFieldsRoundTripAndStayGatedWhenOff) {
  const auto specs = ScenarioSpec::list_from_json(R"({
    "name": "rebal",
    "params": {"arrival_rate": 0.2, "mempool_cap": 8, "rebalance": true,
               "rebalance_moves": 6},
    "rounds": 2,
    "epochs": 3
  })");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioSpec& spec = specs[0];
  EXPECT_TRUE(spec.params.rebalance);
  EXPECT_EQ(spec.params.rebalance_moves, 6u);
  // The canonical encoder round-trips byte-identically.
  const std::string text = spec.to_json_text();
  const auto back = ScenarioSpec::list_from_json(text);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].to_json_text(), text);
  // With the feature off the encoder emits no rebalance keys at all —
  // pre-rebalance artifacts keep their exact bytes.
  ScenarioSpec off = spec;
  off.params.rebalance = false;
  EXPECT_EQ(off.to_json_text().find("rebalance"), std::string::npos);
}

TEST(BehaviorTokens, RoundTripAllBehaviors) {
  using protocol::Behavior;
  for (Behavior b : {Behavior::kHonest, Behavior::kCrash,
                     Behavior::kEquivocator, Behavior::kCommitForger,
                     Behavior::kConcealer, Behavior::kInverseVoter,
                     Behavior::kRandomVoter, Behavior::kLazyVoter,
                     Behavior::kImitator, Behavior::kFramer}) {
    Behavior parsed;
    ASSERT_TRUE(behavior_from_token(behavior_token(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Behavior out;
  EXPECT_FALSE(behavior_from_token("martian", out));
}

}  // namespace
}  // namespace cyc::harness
