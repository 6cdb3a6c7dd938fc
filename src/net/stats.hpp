// Per-node / per-phase / per-tag traffic and storage accounting.
//
// Table II of the paper states asymptotic communication, computation and
// storage complexity per protocol phase and per role; this accounting is
// the measured counterpart, and the only place traffic is counted: the
// round report and every net metric and trace value derive from it. The
// protocol layer labels phases; the simulator attributes every delivered
// message to the label active when it was *sent*.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace cyc::net {

/// Phase labels (indices into per-phase counters).
enum class Phase : std::uint8_t {
  kIdle = 0,
  kCommitteeConfig,
  kSemiCommit,
  kIntraConsensus,
  kInterConsensus,
  kReputation,
  kSelection,
  kBlock,
  kCount,
};

std::string_view phase_name(Phase p);

struct Counter {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;

  Counter& operator+=(const Counter& o) {
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    msgs_recv += o.msgs_recv;
    bytes_recv += o.bytes_recv;
    return *this;
  }
};

/// Injected-fault accounting (net/faults.hpp). Every fault the injector
/// applies is counted here, alongside the traffic counters, so a faulty
/// run's artifact is as byte-deterministic and auditable as a clean one.
struct FaultStats {
  std::uint64_t partition_dropped = 0;  ///< cut by an active partition
  std::uint64_t blackout_dropped = 0;   ///< endpoint inside a blackout
  std::uint64_t lost = 0;               ///< probabilistic link loss
  std::uint64_t duplicated = 0;         ///< delivered twice
  std::uint64_t reordered = 0;          ///< extra delay injected

  std::uint64_t dropped() const {
    return partition_dropped + blackout_dropped + lost;
  }
  std::uint64_t injected() const {
    return dropped() + duplicated + reordered;
  }
  FaultStats& operator+=(const FaultStats& o) {
    partition_dropped += o.partition_dropped;
    blackout_dropped += o.blackout_dropped;
    lost += o.lost;
    duplicated += o.duplicated;
    reordered += o.reordered;
    return *this;
  }
  bool operator==(const FaultStats&) const = default;
};

class TrafficStats {
 public:
  void resize(std::size_t nodes);
  /// Count one message in both tables: the (node, phase) cell and the
  /// (phase, tag) cell.
  void note_send(NodeId node, Phase phase, Tag tag, std::size_t bytes);
  void note_recv(NodeId node, Phase phase, Tag tag, std::size_t bytes);

  const Counter& at(NodeId node, Phase phase) const;
  /// Traffic of one message class sent during `phase`, over all nodes.
  const Counter& at(Phase phase, Tag tag) const;
  Counter node_total(NodeId node) const;
  Counter phase_total(Phase phase) const;
  Counter grand_total() const;
  std::size_t node_count() const { return per_node_.size(); }

  /// Injected-fault counters for the current accounting window (reset
  /// alongside both traffic tables).
  FaultStats& faults() { return faults_; }
  const FaultStats& faults() const { return faults_; }

  void reset();

 private:
  static constexpr std::size_t kPhases =
      static_cast<std::size_t>(Phase::kCount);

  // per_node_[node][phase]
  std::vector<std::vector<Counter>> per_node_;
  // per_tag_[phase][tag]
  std::array<std::array<Counter, kTagCount>, kPhases> per_tag_{};
  FaultStats faults_;
};

}  // namespace cyc::net
