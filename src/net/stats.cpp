#include "net/stats.hpp"

#include <stdexcept>

namespace cyc::net {

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kIdle: return "idle";
    case Phase::kCommitteeConfig: return "committee-config";
    case Phase::kSemiCommit: return "semi-commitment";
    case Phase::kIntraConsensus: return "intra-consensus";
    case Phase::kInterConsensus: return "inter-consensus";
    case Phase::kReputation: return "reputation";
    case Phase::kSelection: return "selection";
    case Phase::kBlock: return "block";
    case Phase::kCount: break;
  }
  return "unknown";
}

void TrafficStats::resize(std::size_t nodes) {
  per_node_.assign(nodes,
                   std::vector<Counter>(static_cast<std::size_t>(Phase::kCount)));
}

void TrafficStats::note_send(NodeId node, Phase phase, Tag tag,
                             std::size_t bytes) {
  const auto p = static_cast<std::size_t>(phase);
  for (Counter* c : {&per_node_.at(node).at(p),
                     &per_tag_.at(p).at(static_cast<std::size_t>(tag))}) {
    c->msgs_sent += 1;
    c->bytes_sent += bytes;
  }
}

void TrafficStats::note_recv(NodeId node, Phase phase, Tag tag,
                             std::size_t bytes) {
  const auto p = static_cast<std::size_t>(phase);
  for (Counter* c : {&per_node_.at(node).at(p),
                     &per_tag_.at(p).at(static_cast<std::size_t>(tag))}) {
    c->msgs_recv += 1;
    c->bytes_recv += bytes;
  }
}

const Counter& TrafficStats::at(NodeId node, Phase phase) const {
  return per_node_.at(node).at(static_cast<std::size_t>(phase));
}

const Counter& TrafficStats::at(Phase phase, Tag tag) const {
  return per_tag_.at(static_cast<std::size_t>(phase))
      .at(static_cast<std::size_t>(tag));
}

Counter TrafficStats::node_total(NodeId node) const {
  Counter total;
  for (const auto& c : per_node_.at(node)) total += c;
  return total;
}

Counter TrafficStats::phase_total(Phase phase) const {
  Counter total;
  for (const auto& c : per_tag_.at(static_cast<std::size_t>(phase))) {
    total += c;
  }
  return total;
}

Counter TrafficStats::grand_total() const {
  Counter total;
  for (std::size_t p = 0; p < kPhases; ++p) {
    total += phase_total(static_cast<Phase>(p));
  }
  return total;
}

void TrafficStats::reset() {
  for (auto& node : per_node_) {
    for (auto& c : node) c = Counter{};
  }
  for (auto& per_tag : per_tag_) per_tag.fill(Counter{});
  faults_ = FaultStats{};
}

}  // namespace cyc::net
