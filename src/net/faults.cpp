#include "net/faults.hpp"

#include <algorithm>

#include "net/simnet.hpp"

namespace cyc::net {

FaultInjector::FaultInjector(FaultPlan plan, rng::Stream rng)
    : plan_(std::move(plan)), rng_(rng) {}

void FaultInjector::add_partition(PartitionSpec spec) {
  plan_.partitions.push_back(std::move(spec));
}

void FaultInjector::add_blackout(BlackoutSpec spec) {
  plan_.blackouts.push_back(spec);
}

std::uint64_t FaultInjector::heal_all(std::uint64_t round) {
  std::uint64_t healed = 0;
  for (auto& p : plan_.partitions) {
    if (p.from_round <= round && round < p.heal_round) {
      p.heal_round = round;
      healed += 1;
    }
  }
  return healed;
}

bool FaultInjector::blacked_out(NodeId node) const {
  for (const auto& b : plan_.blackouts) {
    if (b.node == node && b.from_round <= round_ && round_ < b.until_round) {
      return true;
    }
  }
  return false;
}

std::uint64_t FaultInjector::island_mask(NodeId node) const {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    const auto& p = plan_.partitions[i];
    if (p.from_round <= round_ && round_ < p.heal_round &&
        std::find(p.island.begin(), p.island.end(), node) != p.island.end()) {
      mask |= std::uint64_t{1} << (i % 64);
    }
  }
  return mask;
}

bool FaultInjector::reachable(NodeId a, NodeId b) const {
  if (blacked_out(a) || blacked_out(b)) return false;
  return island_mask(a) == island_mask(b);
}

bool FaultInjector::partition_active() const {
  for (const auto& p : plan_.partitions) {
    if (p.from_round <= round_ && round_ < p.heal_round) return true;
  }
  return false;
}

FaultInjector::Verdict FaultInjector::on_send(NodeId from, NodeId to,
                                              LinkClass cls,
                                              FaultStats& stats) {
  Verdict verdict;
  // Structural cuts first: they consume no randomness, so a plan without
  // probabilistic axes never touches the stream.
  if (blacked_out(from) || blacked_out(to)) {
    stats.blackout_dropped += 1;
    verdict.deliver = false;
    return verdict;
  }
  if (island_mask(from) != island_mask(to)) {
    stats.partition_dropped += 1;
    verdict.deliver = false;
    return verdict;
  }
  const LinkFaults& faults = plan_.link[static_cast<std::size_t>(cls)];
  // Each axis draws only when enabled, keeping disabled-axis runs
  // byte-identical to plans that omit the axis entirely.
  if (faults.drop > 0.0 && rng_.chance(faults.drop)) {
    stats.lost += 1;
    verdict.deliver = false;
    return verdict;
  }
  if (faults.duplicate > 0.0 && rng_.chance(faults.duplicate)) {
    stats.duplicated += 1;
    verdict.duplicate = true;
  }
  if (faults.reorder > 0.0 && rng_.chance(faults.reorder)) {
    stats.reordered += 1;
    verdict.delay_scale = 1.0 + faults.reorder_scale * rng_.uniform();
  }
  return verdict;
}

}  // namespace cyc::net
