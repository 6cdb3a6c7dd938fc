// Declarative scenario specifications for the protocol harness.
//
// A ScenarioSpec bundles everything one deterministic execution needs —
// Params, AdversaryConfig, EngineOptions, a round count, and mid-run
// corruption / churn events — so the same scenario can be built
// programmatically (matrix sweeps, tests) or parsed from a JSON file
// (scenario_runner --spec). The sweep axes follow what separates sharded
// designs in practice: adversary mix, delay regime, capacity skew and
// cross-shard fraction.
//
// JSON encoding: scenario.cpp states the keys of ScenarioSpec, Params,
// AdversaryConfig (with its mix entries) and EngineOptions once each, as
// a field list that both to_json and from_json walk, so a key cannot be
// written without being read. Events keep a hand-written codec, since
// the keys they carry depend on their kind and target. The reader is
// strict: a wrong-typed value, a fractional value for an integer field or
// an unknown key throws std::runtime_error naming the key.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "protocol/adversary.hpp"
#include "protocol/engine.hpp"
#include "protocol/params.hpp"
#include "support/json.hpp"

namespace cyc::harness {

/// Mid-run adversarial schedule entries. Corruption events are applied
/// via Engine::corrupt at the *start* of `round`, so the behaviour takes
/// effect one round later, exactly as the §III-C mildly-adaptive threat
/// model allows. Fault-fabric events (partition / blackout / crash-restart
/// lifecycle) are applied at the same point and take effect immediately —
/// they model the network, not the adversary's key corruption budget.
struct ScenarioEvent {
  enum class Target : std::uint8_t {
    kNode,      ///< explicit node id
    kLeaderOf,  ///< whoever leads committee `committee` when `round` starts
    kRefereeAt, ///< referee seat `committee` (mod |C_R|) when `round` starts
    kCommittee, ///< every member of committee `committee` (partitions)
  };
  enum class Kind : std::uint8_t {
    kCorrupt,   ///< Engine::corrupt(victim, behavior) — the legacy event
    kCrash,     ///< Engine::corrupt(victim, kCrash)
    kRestart,   ///< Engine::restart(victim); no-op on a live node
    kPartition, ///< cut victims from the mainland for `duration` rounds
    kHeal,      ///< close every open partition at `round`
    kBlackout,  ///< silence each victim for `duration` rounds
  };
  // New fields (kind, duration) come last so legacy positional
  // initializers `{round, target, node, committee, behavior}` keep
  // meaning exactly what they did before the fault fabric landed.
  std::uint64_t round = 1;
  Target target = Target::kNode;
  net::NodeId node = 0;
  std::uint32_t committee = 0;
  protocol::Behavior behavior = protocol::Behavior::kCrash;
  Kind kind = Kind::kCorrupt;
  /// Rounds a partition / blackout stays active (heals at round+duration).
  std::uint64_t duration = 1;
};

struct ScenarioSpec {
  std::string name = "scenario";
  protocol::Params params;
  protocol::AdversaryConfig adversary;
  protocol::EngineOptions options;
  /// Rounds per epoch (the plain round count while epochs == 1).
  std::size_t rounds = 2;
  /// Epoch count. > 1 switches the runner onto the epoch lifecycle
  /// (src/epoch/): `rounds` rounds per epoch, a PoW-churn + PVSS-beacon +
  /// reconfiguration boundary between epochs, and the epoch invariants
  /// checked on every EpochHandoff. Provision `params.standby` for the
  /// join pool when churn_rate > 0.
  std::size_t epochs = 1;
  /// Fraction of the membership replaced per epoch boundary (subject to
  /// the manager's bounded-churn budget).
  double churn_rate = 0.0;
  /// Each seed is an independent execution; Params::seed is overridden.
  std::vector<std::uint64_t> seeds = {1};
  std::vector<ScenarioEvent> events;

  /// Parse one spec from a JSON object. Absent keys keep their defaults,
  /// so specs stay short; unknown keys, wrong-typed values and fractional
  /// integers are rejected. Throws std::runtime_error on a malformed
  /// spec.
  static ScenarioSpec from_json(const support::JsonValue& v);

  /// Parse a document that is either one spec object or an array of
  /// them (or an object with a "scenarios" array).
  static std::vector<ScenarioSpec> list_from_json(std::string_view text);

  /// Emit this spec as a JSON object (round-trips through from_json).
  void to_json(support::JsonWriter& w) const;

  /// Serialize to a standalone JSON document. Every field the
  /// programmatic builder can set is emitted, and the encoding is
  /// canonical: serialize -> parse -> serialize is byte-identical, so a
  /// spec written to disk (e.g. a shrunk fuzz repro) replays exactly via
  /// `scenario_runner --spec`.
  std::string to_json_text() const;

  /// Parse a single spec from a standalone JSON document.
  static ScenarioSpec from_json_text(std::string_view text);
};

/// Scenario-matrix axes. build_matrix crosses every axis; empty axes
/// contribute the base value. Scenario names encode the axis choices so
/// artifacts stay self-describing. Every other dimension (committee
/// shape, invalid fraction, epochs, rebalance, events) comes from `base`
/// or is set on a hand-built spec, as default_matrix does.
struct MatrixAxes {
  protocol::Params base;
  protocol::EngineOptions options;
  std::size_t rounds = 2;
  std::vector<std::uint64_t> seeds = {1, 2};
  /// (label, adversary) pairs, e.g. {"honest", {}}.
  std::vector<std::pair<std::string, protocol::AdversaryConfig>> adversaries;
  /// (label, delays) pairs, e.g. {"lan", DelayModel{}}.
  std::vector<std::pair<std::string, net::DelayModel>> delays;
  std::vector<double> cross_shard_fractions;
  /// (capacity_min, capacity_max) pairs — vote-capacity skew axis.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> capacities;
};

std::vector<ScenarioSpec> build_matrix(const MatrixAxes& axes);

/// The bounded default matrix the scenario_runner CLI and the tier-1
/// suite execute: 3 adversary mixes x 2 delay regimes x 2 cross-shard
/// fractions x 2 capacity skews, plus mid-run churn, committee-shape
/// (m/c), high-invalid-fraction, fault-fabric (partition/heal,
/// crash-restart, lossy wide-area links) and multi-epoch (3 epochs,
/// PoW identity churn) scenarios — 3 seeds each.
std::vector<ScenarioSpec> default_matrix();

/// Stable token for a Behavior, and the reverse lookup used by the JSON
/// parser ("crash", "equivocator", ...). Returns false on unknown token.
std::string_view behavior_token(protocol::Behavior b);
bool behavior_from_token(std::string_view token, protocol::Behavior& out);

}  // namespace cyc::harness
