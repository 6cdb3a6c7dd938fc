// What an Engine records into an attached Observer: the one place that
// knows its trace schema and registry keys. Track 0 carries the round ->
// phase span stack and the protocol-wide instants; track
// kTrackCommitteeBase + k mirrors the phase schedule with committee k's
// traffic as args, plus k's instants. See src/obs/README.md.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "net/message.hpp"
#include "net/stats.hpp"

namespace cyc::protocol {
struct CatchUpRecord;
struct RoundAssignment;
struct RoundReport;
}  // namespace cyc::protocol

namespace cyc::obs {

struct Observer;

/// The protocol events of a round; one kEvents row each.
enum class Event : std::uint8_t {
  kQcFormed, kVotesFlushed, kCatchupAdopted, kCatchupFailed, kAccusation,
  kConviction, kNewLeader, kEpochHandoff, kLeadersSelected, kSevered
};

struct EventSpec {
  std::string_view name;  ///< instant name; empty: a counter only
  std::string_view category;
  /// The instant lands on committee k's track (k < m; the referee scope
  /// k = m draws on the protocol track), else on the protocol track.
  bool committee_track;
  std::array<std::string_view, 3> args;  ///< arg names, in emit order
  /// Registry counter: +1 per instant, or the one arg of a counter-only
  /// event. Empty: no counter.
  std::string_view counter;
};

inline constexpr std::array<EventSpec, 10> kEvents = {{
    {"qc-formed", "consensus", true, {"scope", "sn", "signers"},
     "consensus.certs"},
    {"", "", false, {"votes"}, "engine.votes.flushed"},
    {"catchup-adopted", "recovery", false, {"node", "confirms"},
     "engine.catchup.adopted"},
    {"catchup-failed", "recovery", false, {"node", "attempts"},
     "engine.catchup.failed"},
    {"accusation", "recovery", true, {"accuser", "kind"},
     "engine.accusations"},
    {"conviction", "recovery", true, {"leader"}, "engine.convictions"},
    {"new-leader", "recovery", true, {"old", "new"}, ""},
    {"epoch-handoff", "epoch", false, {"epoch", "members"},
     "engine.epoch_handoffs"},
    {"leaders-selected", "selection", false, {"round", "participants"}, ""},
    {"severed", "fault", true, {"committee"}, ""},
}};

/// The committee argument of an event that concerns no committee.
inline constexpr std::uint32_t kNoCommittee = ~std::uint32_t{0};

class EngineTrace {
 public:
  /// Names the tracks of an engine with `m` committees (the mempool
  /// track only when `open_loop`) and marks the thread's verify-cache
  /// counters, whose per-round deltas round_end records.
  EngineTrace(Observer& observer, std::uint32_t m, bool open_loop);

  /// Open round `round`'s span, then note the committees `severed` from
  /// quorum and the failed catch-ups of the round boundary's `catchups`.
  void round_begin(std::uint64_t round, net::Time at,
                   const std::vector<bool>& severed,
                   const std::vector<protocol::CatchUpRecord>& catchups);
  /// Close the open phase span, attaching the traffic sent inside it,
  /// and open `phase`'s; kIdle only closes.
  void phase(net::Phase phase, net::Time at, const net::TrafficStats& stats);
  /// Record one kEvents row: `args` are its arg values, in order.
  void emit(Event event, net::Time at, std::uint32_t committee,
            std::initializer_list<double> args);
  /// Close the last phase and the round, replay the phase windows on the
  /// committee tracks with each committee's traffic, and flush the
  /// round's counters, traffic cells and fault counts into the registry.
  void round_end(const protocol::RoundReport& report,
                 const protocol::RoundAssignment& assignment,
                 const net::TrafficStats& stats, net::Time at);

 private:
  struct PhaseWindow {
    net::Phase phase;
    net::Time begin;
    net::Time end;
  };

  Observer& observer_;
  std::uint32_t m_;
  bool open_loop_;
  net::Time round_start_ = 0.0;
  net::Phase open_phase_ = net::Phase::kIdle;
  net::Time open_phase_at_ = 0.0;
  net::Counter open_phase_mark_;  // running totals at the open phase's begin
  std::vector<PhaseWindow> windows_;  // closed phases of the round, in order
};

}  // namespace cyc::obs
