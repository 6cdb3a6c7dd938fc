// Adversary model (§III-C).
//
// A mildly-adaptive adversary controls < 1/3 of the nodes. Corruption can
// be requested at the start of any round but takes one full round to take
// effect. Corrupted nodes collude and may act arbitrarily; we implement
// the concrete misbehaviours the paper's security section reasons about,
// so every detection path (Theorems 2/5/8, Claims 3/4) is exercised.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace cyc::protocol {

enum class Behavior : std::uint8_t {
  kHonest = 0,
  /// Pretends to be offline: never sends anything (also models fail-stop).
  kCrash,
  /// As leader, proposes different messages to different members in
  /// Algorithm 3 (detected via relayed PROPOSEs -> EquivocationWitness).
  kEquivocator,
  /// As leader, publishes a semi-commitment that does not match the
  /// member list it distributes (detected by C_R / partial set, §V-D).
  kCommitForger,
  /// As leader, conceals incoming cross-shard TX lists from its
  /// committee (detected by the partial set via the 2*Gamma rule,
  /// Lemmas 6/7).
  kConcealer,
  /// As member, votes the inverse of its honest judgment.
  kInverseVoter,
  /// As member, votes uniformly at random.
  kRandomVoter,
  /// As member, always votes Unknown — free-rides at g(0)=1 (§IV-G
  /// discusses exactly these nodes).
  kLazyVoter,
  /// As leader, fabricates a cross-shard result with a forged
  /// certificate (the "imitate" half of Lemma 6) — must be rejected by
  /// every verifier.
  kImitator,
  /// As partial-set member, tries to frame an honest leader with a
  /// fabricated witness (must never succeed, Claim 4).
  kFramer,
};

std::string_view behavior_name(Behavior b);

/// True if the behaviour only manifests when the node holds a leader
/// role; such nodes act as inverse voters when they are common members.
bool is_leader_behavior(Behavior b);

struct AdversaryConfig {
  /// Fraction of all nodes corrupted at genesis (< 1/3 per threat model;
  /// callers may exceed it deliberately to probe failure).
  double corrupt_fraction = 0.0;

  /// Sampling weights over misbehaviours for corrupted nodes. Zero-weight
  /// entries are never drawn. Defaults exercise every detection path.
  struct Weight {
    Behavior behavior;
    double weight = 1.0;
  };
  std::vector<Weight> mix = {
      {Behavior::kCrash, 1.0},        {Behavior::kEquivocator, 1.0},
      {Behavior::kCommitForger, 1.0}, {Behavior::kConcealer, 1.0},
      {Behavior::kInverseVoter, 1.0}, {Behavior::kRandomVoter, 1.0},
      {Behavior::kFramer, 0.5},
  };

  /// If >= 0, force this fraction of round-1 leaders to be corrupted
  /// (used by the dishonest-leader experiments, Table I row 6).
  double forced_corrupt_leader_fraction = -1.0;

  Behavior sample(rng::Stream& rng) const;
};

}  // namespace cyc::protocol
