#include "fuzz/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "analysis/bounds.hpp"

namespace cyc::fuzz {

namespace {

using harness::ScenarioEvent;
using harness::ScenarioSpec;
using protocol::Behavior;

template <typename T, std::size_t N>
const T& pick(rng::Stream& rng, const std::array<T, N>& grid) {
  return grid[static_cast<std::size_t>(rng.below(N))];
}

/// Largest grid value, for the static_asserts that keep each grid under
/// its documented bound.
template <typename T, std::size_t N>
constexpr T grid_max(const std::array<T, N>& grid) {
  return *std::max_element(grid.begin(), grid.end());
}

/// Does a corrupt member with this behaviour cast wrong votes? Leader
/// behaviours act as inverse voters when they are common members
/// (is_leader_behavior), random voters are wrong half the time (counted
/// fully, erring safe), crash / lazy voters abstain and cannot push an
/// invalid transaction through a vote.
bool misvotes_as_member(Behavior b) {
  return b != Behavior::kCrash && b != Behavior::kLazyVoter;
}

/// Every concrete misbehaviour of the §III-C adversary (kHonest is not a
/// corruption and is excluded from event schedules and mixes).
constexpr std::array<Behavior, 9> kMisbehaviors = {
    Behavior::kCrash,        Behavior::kEquivocator, Behavior::kCommitForger,
    Behavior::kConcealer,    Behavior::kInverseVoter, Behavior::kRandomVoter,
    Behavior::kLazyVoter,    Behavior::kImitator,     Behavior::kFramer,
};

protocol::AdversaryConfig sample_adversary(rng::Stream& rng) {
  protocol::AdversaryConfig adv;
  // Quantized corruption grid below the honest-majority bound; ~1/4 of
  // specs run the honest baseline.
  constexpr std::array<double, 8> kFractions = {0.0,  0.0,  0.1, 0.15,
                                                0.2,  0.25, 0.3, 0.3};
  static_assert(grid_max(kFractions) <= kMaxCorruptFraction);
  adv.corrupt_fraction = pick(rng, kFractions);
  if (adv.corrupt_fraction == 0.0) {
    adv.mix.clear();
    return adv;
  }
  // 1..4 distinct behaviours with short-decimal weights.
  constexpr std::array<double, 4> kWeights = {0.5, 1.0, 1.5, 2.0};
  const std::size_t count = 1 + static_cast<std::size_t>(rng.below(4));
  std::array<Behavior, 9> pool = kMisbehaviors;
  rng::shuffle(pool, rng);
  adv.mix.clear();
  for (std::size_t i = 0; i < count; ++i) {
    adv.mix.push_back({pool[i], pick(rng, kWeights)});
  }
  // Occasionally force corrupt round-1 leaders (Table I row 6 stress).
  if (rng.chance(0.25)) {
    constexpr std::array<double, 3> kForced = {0.34, 0.5, 0.67};
    adv.forced_corrupt_leader_fraction = pick(rng, kForced);
  }
  return adv;
}

/// The §VIII extension toggles (precommunication / parallel blocks) and
/// the uniform-leader ablation.
protocol::EngineOptions sample_options(rng::Stream& rng) {
  protocol::EngineOptions options;
  // Recovery stays on (the recovery-off baseline deliberately loses
  // rounds, which is not an invariant violation worth fuzzing for).
  options.reputation_leader_selection = !rng.chance(0.2);
  options.extension_precommunication = rng.chance(0.2);
  options.extension_parallel_blocks = rng.chance(0.2);
  return options;
}

std::vector<ScenarioEvent> sample_events(rng::Stream& rng,
                                         const protocol::Params& params,
                                         std::size_t total_rounds) {
  std::vector<ScenarioEvent> events;
  const std::size_t count =
      static_cast<std::size_t>(rng.below(kMaxEvents + 1));
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioEvent ev;
    ev.round = 1 + rng.below(total_rounds);
    switch (rng.below(3)) {
      case 0:
        ev.target = ScenarioEvent::Target::kNode;
        ev.node = static_cast<net::NodeId>(rng.below(params.total_nodes()));
        break;
      case 1:
        ev.target = ScenarioEvent::Target::kLeaderOf;
        ev.committee = static_cast<std::uint32_t>(rng.below(params.m));
        break;
      default:
        ev.target = ScenarioEvent::Target::kRefereeAt;
        ev.committee =
            static_cast<std::uint32_t>(rng.below(params.referee_size));
        break;
    }
    ev.behavior = pick(rng, kMisbehaviors);
    events.push_back(ev);
  }
  return events;
}

/// Fault-fabric schedule, appended after the corruption events. Every
/// sampled schedule is structurally legal: a restart trails its crash by
/// two rounds (the crash takes effect one round after the event,
/// §III-C, and the restart must find the node down), partition islands
/// are whole committees, and explicit heals land inside the run.
void sample_fault_events(rng::Stream& rng, const protocol::Params& params,
                         std::size_t total_rounds,
                         std::vector<ScenarioEvent>& events) {
  const std::size_t partitions =
      static_cast<std::size_t>(rng.below(kMaxPartitions + 1));
  for (std::size_t i = 0; i < partitions; ++i) {
    ScenarioEvent cut;
    cut.kind = ScenarioEvent::Kind::kPartition;
    cut.target = ScenarioEvent::Target::kCommittee;
    cut.committee = static_cast<std::uint32_t>(rng.below(params.m));
    cut.round = 1 + rng.below(total_rounds);
    cut.duration = 1 + rng.below(2);
    events.push_back(cut);
    // Half the cuts also get an explicit heal one round in — exercising
    // the kHeal path; the rest expire through their duration.
    if (cut.round + 1 <= total_rounds && rng.chance(0.5)) {
      ScenarioEvent heal;
      heal.kind = ScenarioEvent::Kind::kHeal;
      heal.round = cut.round + 1;
      events.push_back(heal);
    }
  }

  if (total_rounds >= 3) {
    const std::size_t pairs =
        static_cast<std::size_t>(rng.below(kMaxCrashRestarts + 1));
    for (std::size_t i = 0; i < pairs; ++i) {
      ScenarioEvent crash;
      crash.kind = ScenarioEvent::Kind::kCrash;
      crash.target = ScenarioEvent::Target::kNode;
      crash.node = static_cast<net::NodeId>(rng.below(params.total_nodes()));
      crash.round = 1 + rng.below(total_rounds - 2);
      events.push_back(crash);
      ScenarioEvent back;
      back.kind = ScenarioEvent::Kind::kRestart;
      back.target = ScenarioEvent::Target::kNode;
      back.node = crash.node;
      back.round = crash.round + 2;
      events.push_back(back);
    }
  }

  const std::size_t blackouts =
      static_cast<std::size_t>(rng.below(kMaxBlackouts + 1));
  for (std::size_t i = 0; i < blackouts; ++i) {
    ScenarioEvent dark;
    dark.kind = ScenarioEvent::Kind::kBlackout;
    if (rng.chance(0.5)) {
      dark.target = ScenarioEvent::Target::kNode;
      dark.node = static_cast<net::NodeId>(rng.below(params.total_nodes()));
    } else {
      dark.target = ScenarioEvent::Target::kLeaderOf;
      dark.committee = static_cast<std::uint32_t>(rng.below(params.m));
    }
    dark.round = 1 + rng.below(total_rounds);
    dark.duration = 1;
    events.push_back(dark);
  }
}

/// Corrupt seats a spec can field in any one round: the genesis draw
/// (plus forced leaders and every scheduled event — each corrupts at
/// most one extra node). The misvote budget additionally weights by the
/// mix's misvoting share (crash / lazy seats cannot push an invalid
/// transaction through a vote, but they do count against liveness).
struct CorruptBudget {
  std::uint32_t misvoters = 0;
  std::uint32_t corrupt = 0;
};

CorruptBudget corrupt_budget(const ScenarioSpec& spec) {
  const std::uint32_t n = spec.params.total_nodes();
  // Genesis corruption draws over the whole universe — standby included
  // (Engine::build_nodes) — and PoW churn can rotate corrupt standby
  // identities into active seats, so budget against the universe count
  // (clamped to the enrolled seats a round can actually field).
  const auto corrupt = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(spec.adversary.corrupt_fraction *
                                 static_cast<double>(spec.params.universe())),
      n);
  double total_weight = 0.0;
  double misvote_weight = 0.0;
  for (const auto& entry : spec.adversary.mix) {
    total_weight += entry.weight;
    if (misvotes_as_member(entry.behavior)) misvote_weight += entry.weight;
  }
  const double share = total_weight > 0.0 ? misvote_weight / total_weight : 0.0;
  // Only key-corruption events spend adversary budget; fault-fabric
  // events (partition / restart / heal / blackout) impair connectivity,
  // which the invariant suite accounts for separately (severed /
  // impaired exemptions), not votes.
  std::uint32_t events = 0;
  for (const auto& ev : spec.events) {
    if (ev.kind == ScenarioEvent::Kind::kCorrupt ||
        ev.kind == ScenarioEvent::Kind::kCrash) {
      events += 1;
    }
  }
  std::uint32_t forced = 0;
  if (spec.adversary.forced_corrupt_leader_fraction > 0.0) {
    forced = static_cast<std::uint32_t>(
        std::ceil(spec.adversary.forced_corrupt_leader_fraction *
                  static_cast<double>(spec.params.m)));
  }
  CorruptBudget budget;
  budget.misvoters = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(
          std::ceil(static_cast<double>(corrupt) * share)) +
          events,
      n);
  budget.corrupt = std::min<std::uint32_t>(corrupt + forced + events, n);
  return budget;
}

}  // namespace

double spec_failure_tail(std::uint32_t n, std::uint32_t misvoters,
                         std::uint32_t corrupt, std::uint32_t m,
                         std::uint32_t c, std::uint32_t referee_size) {
  const auto group_tail = [&](std::uint32_t t) {
    return static_cast<double>(m) *
               analysis::committee_failure_exact(n, t, c) +
           analysis::committee_failure_exact(n, t, referee_size);
  };
  // `corrupt >= misvoters` always, so the liveness term dominates; both
  // are kept explicit because they bound different invariants (vote
  // safety vs commit-or-recover).
  return group_tail(misvoters) + group_tail(corrupt);
}

ScenarioSpec generate_spec(rng::Stream& rng) {
  // Rejection sampling against the fair-draw tail; the honest fallback
  // below makes the loop total, and in practice a handful of tries
  // suffice (the filter mostly rejects narrow high-fraction mixes on
  // small committees).
  for (int attempt = 0; attempt < 64; ++attempt) {
    ScenarioSpec spec;
    spec.name = "fuzz";

    // Committee shape: small enough for a 200-spec budget, varied enough
    // to cross sortition, the cross-shard mesh and capacity skew.
    struct Shape {
      std::uint32_t m, c, lambda, referee;
    };
    constexpr std::array<Shape, 6> kShapes = {{{2, 8, 2, 5},
                                               {3, 9, 3, 5},
                                               {2, 10, 3, 7},
                                               {3, 6, 2, 5},
                                               {4, 6, 2, 5},
                                               {4, 8, 3, 7}}};
    const Shape& shape = pick(rng, kShapes);
    spec.params.m = shape.m;
    spec.params.c = shape.c;
    spec.params.lambda = shape.lambda;
    spec.params.referee_size = shape.referee;
    spec.params.users = 20 * shape.m;

    constexpr std::array<std::uint32_t, 4> kTxs = {6, 8, 10, 12};
    spec.params.txs_per_committee = pick(rng, kTxs);
    constexpr std::array<double, 4> kCross = {0.0, 0.1, 0.2, 0.4};
    spec.params.cross_shard_fraction = pick(rng, kCross);
    constexpr std::array<double, 4> kInvalid = {0.0, 0.05, 0.1, 0.3};
    spec.params.invalid_fraction = pick(rng, kInvalid);
    constexpr std::array<std::pair<std::uint32_t, std::uint32_t>, 4> kCaps = {
        {{64, 64}, {4, 16}, {8, 32}, {16, 64}}};
    const auto& [cap_min, cap_max] = pick(rng, kCaps);
    spec.params.capacity_min = cap_min;
    spec.params.capacity_max = cap_max;

    // Legal delay regimes: the paper's default and slower partial-sync
    // points (gamma >= delta, bounded jitter).
    constexpr std::array<double, 2> kGamma = {5.0, 7.0};
    constexpr std::array<double, 4> kJitter = {0.5, 1.0, 2.0, 3.0};
    spec.params.delays.gamma = pick(rng, kGamma);
    spec.params.delays.jitter = pick(rng, kJitter);

    spec.adversary = sample_adversary(rng);
    spec.options = sample_options(rng);

    spec.rounds = 1 + static_cast<std::size_t>(rng.below(kMaxRounds));
    if (rng.chance(0.25)) {
      spec.epochs = 2 + static_cast<std::size_t>(rng.below(kMaxEpochs - 1));
      constexpr std::array<double, 3> kChurn = {0.0, 0.1, 0.2};
      static_assert(grid_max(kChurn) <= kMaxChurnRate);
      spec.churn_rate = pick(rng, kChurn);
      if (spec.churn_rate > 0.0) {
        // Size the standby pool to cover every boundary's churn budget.
        spec.params.standby = static_cast<std::uint32_t>(
            std::ceil(spec.churn_rate *
                      static_cast<double>(spec.params.total_nodes())) *
            static_cast<std::uint32_t>(spec.epochs));
      }
    }

    const std::size_t seed_count =
        1 + static_cast<std::size_t>(rng.below(kMaxSeeds));
    spec.seeds.clear();
    for (std::size_t i = 0; i < seed_count; ++i) {
      spec.seeds.push_back(1 + rng.below(1u << 20));
    }

    spec.events = sample_events(rng, spec.params, spec.rounds * spec.epochs);
    sample_fault_events(rng, spec.params, spec.rounds * spec.epochs,
                        spec.events);
    // Probabilistic wide-area loss on ~30% of specs; intra-committee
    // links stay reliable per the synchronous-Δ assumption (§III-B).
    if (rng.chance(0.3)) {
      constexpr std::array<double, 3> kDrop = {0.02, 0.05, 0.1};
      constexpr std::array<double, 3> kDuplicate = {0.0, 0.05, 0.1};
      constexpr std::array<double, 3> kReorder = {0.0, 0.25, 0.5};
      static_assert(grid_max(kDrop) <= kMaxDrop);
      spec.params.faults.drop = pick(rng, kDrop);
      spec.params.faults.duplicate = pick(rng, kDuplicate);
      spec.params.faults.reorder = pick(rng, kReorder);
    }

    const CorruptBudget budget = corrupt_budget(spec);
    if (spec_failure_tail(spec.params.total_nodes(), budget.misvoters,
                          budget.corrupt, spec.params.m, spec.params.c,
                          spec.params.referee_size) <=
        kMaxCommitteeFailure) {
      return spec;
    }
  }
  // Unreachable in practice: an honest spec always passes the filter.
  ScenarioSpec fallback;
  fallback.name = "fuzz";
  return fallback;
}

}  // namespace cyc::fuzz
