// Deterministic fault injection layered over SimNet.
//
// The §III threat model quantifies over adversarial *schedules*, not just
// delay regimes: the adversary may cut links, silence nodes, and lose,
// duplicate or reorder messages on the partially synchronous channels. A
// FaultPlan describes such a schedule declaratively — round-scoped link
// partitions with heal rounds, per-node blackout windows, and one
// probabilistic-but-seeded message loss / duplication / reordering
// profile for the wide-area links — and the FaultInjector evaluates it at
// every send. The injector composes with (never replaces) the
// LinkClassifier: the classifier says what channel exists, the injector
// says what the adversary does to it this round. Intra-committee links
// take no probabilistic faults: the paper's synchronous-Delta bound
// (§III-B) holds inside a committee, so only the key mesh and the
// partial-sync cross links degrade.
//
// Determinism contract: structural faults (partitions, blackouts) consume
// no randomness at all, and a probabilistic axis consumes draws from the
// injector's private stream only when its probability is non-zero — so a
// plan with no probabilistic faults leaves every delay draw of the
// underlying SimNet byte-identical to an uninstrumented run, and any plan
// is reproducible from (seed, plan) alone. Every injected fault is
// counted in the TrafficStats' FaultStats block so artifacts stay
// byte-deterministic and auditable.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "net/stats.hpp"
#include "support/rng.hpp"

namespace cyc::net {

enum class LinkClass : std::uint8_t;  // defined in net/simnet.hpp

/// Extra delay factor of a reordered message: its scheduled delay is
/// scaled by (1 + kReorderScale * u), u uniform — enough to invert
/// delivery order against any message sent in the same window.
inline constexpr double kReorderScale = 4.0;

/// Probabilistic message faults on the wide-area links (kKeyMesh and
/// kPartialSync). All probabilities are per message; draws come from the
/// injector's seeded stream.
struct FaultProfile {
  double drop = 0.0;       ///< P[message silently lost]
  double duplicate = 0.0;  ///< P[message delivered twice]
  double reorder = 0.0;    ///< P[delivery delayed by kReorderScale]

  bool any() const { return drop > 0.0 || duplicate > 0.0 || reorder > 0.0; }
};

/// A round-scoped link partition: `island` is cut from the mainland (and
/// from every other island) for rounds in [from_round, heal_round).
/// Nodes inside the island still reach each other.
struct PartitionSpec {
  std::uint64_t from_round = 0;
  std::uint64_t heal_round = 0;  ///< first healed round (exclusive end)
  std::vector<NodeId> island;
};

/// A per-node blackout window: the node can neither send nor receive for
/// rounds in [from_round, until_round).
struct BlackoutSpec {
  NodeId node = kNoNode;
  std::uint64_t from_round = 0;
  std::uint64_t until_round = 0;  ///< exclusive
};

/// A complete fault schedule. Declarative and immutable-by-value; the
/// harness may append partitions / blackouts mid-run through the
/// injector (ScenarioEvent kinds kPartition / kBlackout).
struct FaultPlan {
  std::vector<PartitionSpec> partitions;
  std::vector<BlackoutSpec> blackouts;
  FaultProfile wide_area{};
};

/// Per-round fault evaluation. Owned by SimNet (install_faults); the
/// protocol engine advances its round clock and queries connectivity to
/// compute quorum-reachability (severed committees, unreachable seats).
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, rng::Stream rng);

  /// Advance the round clock; partitions and blackouts activate / expire
  /// on round boundaries.
  void begin_round(std::uint64_t round) { round_ = round; }
  std::uint64_t round() const { return round_; }

  /// Append a partition (takes effect per its from_round / heal_round).
  void add_partition(PartitionSpec spec);
  /// Append a blackout window.
  void add_blackout(BlackoutSpec spec);
  /// Heal every partition still open at `round`: clamps each active
  /// partition's heal_round to `round`. Returns how many were healed.
  std::uint64_t heal_all(std::uint64_t round);

  /// What the adversary does to one send this round. `stats` receives
  /// the fault accounting (TrafficStats::faults()).
  struct Verdict {
    bool deliver = true;
    bool duplicate = false;
    double delay_scale = 1.0;
  };
  Verdict on_send(NodeId from, NodeId to, LinkClass cls, FaultStats& stats);

  /// True when `node` is inside an active blackout window this round.
  bool blacked_out(NodeId node) const;
  /// Bitmask of active partitions whose island contains `node` (bit i
  /// for partition i mod 64). Two non-blacked-out nodes can communicate
  /// iff their masks are equal — island membership is an equivalence
  /// relation, which is what makes comm-group queries well-defined.
  std::uint64_t island_mask(NodeId node) const;
  /// Can a and b exchange messages this round?
  bool reachable(NodeId a, NodeId b) const;
  /// Any partition currently cutting links?
  bool partition_active() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  rng::Stream rng_;
  std::uint64_t round_ = 0;
};

}  // namespace cyc::net
