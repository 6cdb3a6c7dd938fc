// Deterministic discrete-event network simulator.
//
// Models the paper's network assumptions (§III-B):
//  * synchronous channels inside a committee (delay <= Delta),
//  * synchronous but slower channels among key members / referees
//    (delay <= Gamma),
//  * partially synchronous channels everywhere else (bounded delay with
//    adversarial jitter — the adversary may reorder messages, §III-C).
//
// The simulator is single-threaded and deterministic per seed: events are
// ordered by (time, sequence number), and all jitter comes from a named
// rng::Stream. Monte-Carlo sweeps parallelize across *independent*
// simulator instances, never inside one.
//
// Intra-engine contract (EngineOptions::engine_threads): delay jitter is
// drawn from the stream *at send time*, in global send order, so every
// call into send()/multicast()/send_shared() must happen on the engine
// thread in the exact order of the sequential path. The Engine's one
// pooled stage, the PoW search, honours this: its workers only compute
// the solutions, and the engine thread sends them in node order — see
// "Execution model" in src/protocol/README.md. SimNet itself is never
// called from pool workers.
//
// Accounting: stats() is the only traffic count. A send is counted (by
// sender, current phase and tag) before the channel / fault drop
// decision, a delivery when it is handed to the receiver (under the
// phase of its send). The round report and every net metric and trace
// value are derived from these tables; SimNet has no observer hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "net/faults.hpp"
#include "net/message.hpp"
#include "net/stats.hpp"
#include "support/rng.hpp"

namespace cyc::net {

/// Channel classes with distinct delay behaviour.
enum class LinkClass : std::uint8_t {
  kIntraCommittee,   // delay = Delta
  kKeyMesh,          // delay = Gamma
  kPartialSync,      // delay in [Gamma, Gamma * (1 + jitter)], reorderable
};

struct DelayModel {
  Time delta = 1.0;            ///< intra-committee bound
  Time gamma = 5.0;            ///< key-member / referee mesh bound
  double jitter = 1.0;         ///< partial-sync jitter factor
};

/// Classifies the channel between two nodes. Installed by the protocol
/// engine, which knows committee membership and roles.
using LinkClassifier = std::function<LinkClass(NodeId from, NodeId to)>;

/// Receiver callback; invoked at delivery time.
using Handler = std::function<void(const Message&, Time now)>;

class SimNet {
 public:
  SimNet(std::size_t node_count, DelayModel delays, rng::Stream rng);

  /// Install the channel classifier (defaults to everything kKeyMesh).
  void set_link_classifier(LinkClassifier classifier);

  /// Install a fault injector evaluated on every send. The injector
  /// composes with the classifier: the classifier decides which channel
  /// exists, the injector decides what the adversary does to it. `rng`
  /// must be a stream independent of the delay stream (the protocol
  /// engine forks "faults") so fault-free plans leave every delay draw
  /// byte-identical to an uninstrumented run.
  void install_faults(FaultPlan plan, rng::Stream rng);

  /// The installed injector, or nullptr. Mutable access lets the
  /// harness add partitions / blackouts and heal mid-run.
  FaultInjector* faults() { return injector_ ? &*injector_ : nullptr; }
  const FaultInjector* faults() const {
    return injector_ ? &*injector_ : nullptr;
  }

  /// Advance the injector's round clock (no-op without an injector);
  /// partitions and blackouts activate / expire on round boundaries.
  void begin_round(std::uint64_t round) {
    if (injector_) injector_->begin_round(round);
  }

  /// Install the delivery handler for a node.
  void set_handler(NodeId node, Handler handler);

  /// Label subsequent traffic with a protocol phase for accounting.
  void set_phase(Phase phase) { phase_ = phase; }
  Phase phase() const { return phase_; }

  /// Queue a message for delivery (or drop and count it, when the fault
  /// injector says so). Throws std::out_of_range, counting nothing, for an
  /// unknown sender or receiver.
  void send(NodeId from, NodeId to, Tag tag, Bytes payload);

  /// Zero-copy send: the queued event and the delivered Message alias
  /// `payload`. Callers that fan one payload out to several receivers
  /// (outside of multicast) wrap it once with make_payload and reuse it.
  void send_shared(NodeId from, NodeId to, Tag tag, PayloadPtr payload);

  /// Send to many receivers (the BROADCAST of the pseudocode — multicast
  /// to known members, each counted individually). The payload is
  /// materialised exactly once per logical broadcast; every receiver's
  /// Message aliases the same immutable buffer.
  void multicast(NodeId from, const std::vector<NodeId>& to, Tag tag,
                 Bytes payload);

  /// Zero-copy multicast over an already-shared payload (no allocation).
  void multicast_shared(NodeId from, const std::vector<NodeId>& to, Tag tag,
                        const PayloadPtr& payload);

  /// Schedule a local timer callback for `node` at absolute time `when`.
  void schedule(Time when, std::function<void(Time)> fn);

  /// Run until the event queue is empty or `deadline` is passed.
  /// Returns the time of the last processed event.
  Time run(Time deadline = 1e18);

  Time now() const { return now_; }
  bool idle() const { return queue_.empty(); }

  const TrafficStats& stats() const { return stats_; }
  TrafficStats& stats() { return stats_; }
  std::uint64_t dropped_sends() const { return dropped_; }
  std::size_t node_count() const { return handlers_.size(); }

 private:
  struct Event {
    // Exactly one of message / timer is active.
    bool is_timer;
    Message msg;
    Phase send_phase;
    std::function<void(Time)> timer;
  };
  // The queue orders small keys; events wait in reusable slots, so a heap
  // step moves 24 bytes instead of a whole event.
  struct Key {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct KeyOrder {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Time class_delay(LinkClass cls);
  /// Queue `ev` at `when`, after every event already queued for `when`.
  void enqueue(Time when, Event ev);

  DelayModel delays_;
  rng::Stream rng_;
  LinkClassifier classifier_;
  std::optional<FaultInjector> injector_;
  std::vector<Handler> handlers_;
  std::priority_queue<Key, std::vector<Key>, KeyOrder> queue_;
  std::vector<Event> events_;             // slots referenced by queue_
  std::vector<std::uint32_t> free_slots_;
  TrafficStats stats_;
  Phase phase_ = Phase::kIdle;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cyc::net
