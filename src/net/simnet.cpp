#include "net/simnet.hpp"

#include <stdexcept>

namespace cyc::net {

SimNet::SimNet(std::size_t node_count, DelayModel delays, rng::Stream rng)
    : delays_(delays),
      rng_(rng),
      classifier_([](NodeId, NodeId) { return LinkClass::kKeyMesh; }),
      handlers_(node_count) {
  stats_.resize(node_count);
}

void SimNet::set_link_classifier(LinkClassifier classifier) {
  classifier_ = std::move(classifier);
}

void SimNet::install_faults(FaultPlan plan, rng::Stream rng) {
  injector_.emplace(std::move(plan), rng);
}

void SimNet::set_handler(NodeId node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

Time SimNet::class_delay(LinkClass cls) {
  switch (cls) {
    case LinkClass::kIntraCommittee:
      // Uniform in (0, Delta]: synchronous bound.
      return delays_.delta * (0.5 + 0.5 * rng_.uniform());
    case LinkClass::kKeyMesh:
      return delays_.gamma * (0.5 + 0.5 * rng_.uniform());
    case LinkClass::kPartialSync:
      // Bounded but adversarially jittered: delivery order between any
      // two messages on such links can invert.
      return delays_.gamma * (1.0 + delays_.jitter * rng_.uniform());
    case LinkClass::kUnconnected:
      return -1.0;
  }
  return -1.0;
}

void SimNet::send(NodeId from, NodeId to, Tag tag, Bytes payload) {
  send_shared(from, to, tag, make_payload(std::move(payload)));
}

void SimNet::send_shared(NodeId from, NodeId to, Tag tag, PayloadPtr payload) {
  // Both endpoints are checked before anything reads them: the
  // classifier indexes per-node state, and a rejected send must leave
  // the stats untouched.
  if (from >= handlers_.size()) {
    throw std::out_of_range("SimNet::send: unknown sender");
  }
  if (to >= handlers_.size()) {
    throw std::out_of_range("SimNet::send: unknown receiver");
  }
  Message msg{from, to, tag, std::move(payload)};
  const LinkClass cls = classifier_(from, to);
  stats_.note_send(from, phase_, tag, msg.wire_size());
  if (cls == LinkClass::kUnconnected) {
    // No channel at all: the injector is never consulted (nothing to
    // fault), so its stream stays untouched.
    ++dropped_;
    return;
  }
  FaultInjector::Verdict verdict;
  if (injector_) {
    verdict = injector_->on_send(from, to, cls, stats_.faults());
    if (!verdict.deliver) {
      ++dropped_;
      return;
    }
  }
  const Time delay = class_delay(cls) * verdict.delay_scale;
  enqueue(now_ + delay, Event{false, msg, phase_, {}});
  if (verdict.duplicate) {
    // The duplicate aliases the same payload buffer and takes its own
    // delay draw, so the two copies can arrive in either order.
    enqueue(now_ + class_delay(cls) * verdict.delay_scale,
            Event{false, std::move(msg), phase_, {}});
  }
}

void SimNet::multicast(NodeId from, const std::vector<NodeId>& to, Tag tag,
                       Bytes payload) {
  multicast_shared(from, to, tag, make_payload(std::move(payload)));
}

void SimNet::multicast_shared(NodeId from, const std::vector<NodeId>& to,
                              Tag tag, const PayloadPtr& payload) {
  for (NodeId receiver : to) {
    if (receiver == from) continue;
    send_shared(from, receiver, tag, payload);
  }
}

void SimNet::schedule(Time when, std::function<void(Time)> fn) {
  enqueue(when < now_ ? now_ : when, Event{true, {}, phase_, std::move(fn)});
}

void SimNet::enqueue(Time when, Event ev) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(events_.size());
    events_.push_back(std::move(ev));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    events_[slot] = std::move(ev);
  }
  queue_.push(Key{when, seq_++, slot});
}

Time SimNet::run(Time deadline) {
  while (!queue_.empty()) {
    const Key next = queue_.top();
    if (next.when > deadline) break;
    queue_.pop();
    // Take the event out of its slot before running it: handlers enqueue
    // new events, which may reuse the slot or grow events_.
    Event ev = std::move(events_[next.slot]);
    free_slots_.push_back(next.slot);
    now_ = next.when;
    if (ev.is_timer) {
      ev.timer(now_);
      continue;
    }
    stats_.note_recv(ev.msg.to, ev.send_phase, ev.msg.tag,
                     ev.msg.wire_size());
    if (handlers_[ev.msg.to]) {
      handlers_[ev.msg.to](ev.msg, now_);
    }
  }
  return now_;
}

}  // namespace cyc::net
