#include "obs/engine_trace.hpp"

#include <string>
#include <utility>

#include "obs/observer.hpp"
#include "protocol/report.hpp"
#include "protocol/roles.hpp"

namespace cyc::obs {

EngineTrace::EngineTrace(Observer& observer, std::uint32_t m, bool open_loop)
    : observer_(observer),
      m_(m),
      open_loop_(open_loop) {
  Tracer& trace = observer_.trace;
  trace.set_track_name(kTrackProtocol, "protocol");
  trace.set_track_name(kTrackNet, "net");
  if (open_loop_) trace.set_track_name(kTrackMempool, "mempool");
  for (std::uint32_t k = 0; k < m_; ++k) {
    trace.set_track_name(kTrackCommitteeBase + k,
                         "committee " + std::to_string(k));
  }
}

void EngineTrace::round_begin(
    std::uint64_t round, net::Time at, const std::vector<bool>& severed,
    const std::vector<protocol::CatchUpRecord>& catchups) {
  round_start_ = at;
  open_phase_ = net::Phase::kIdle;
  open_phase_at_ = at;
  windows_.clear();
  observer_.trace.begin(kTrackProtocol, "round " + std::to_string(round),
                        "round", at);
  for (std::uint32_t k = 0; k < severed.size(); ++k) {
    if (severed[k]) emit(Event::kSevered, at, k, {static_cast<double>(k)});
  }
  // An adopted catch-up is emitted where it happens, mid-round; the
  // boundary log holds only the failed ones.
  for (const protocol::CatchUpRecord& rec : catchups) {
    if (!rec.success) {
      emit(Event::kCatchupFailed, at, kNoCommittee,
           {static_cast<double>(rec.node), static_cast<double>(rec.attempt)});
    }
  }
}

void EngineTrace::phase(net::Phase phase, net::Time at,
                        const net::TrafficStats& stats) {
  Tracer& trace = observer_.trace;
  const net::Counter total = stats.grand_total();
  if (open_phase_ != net::Phase::kIdle) {
    const std::uint64_t msgs = total.msgs_sent - open_phase_mark_.msgs_sent;
    const std::uint64_t bytes = total.bytes_sent - open_phase_mark_.bytes_sent;
    const std::uint64_t recv = total.msgs_recv - open_phase_mark_.msgs_recv;
    trace.end(kTrackProtocol, at,
              {{"msgs_sent", msgs},
               {"bytes_sent", bytes},
               {"msgs_recv", recv}});
    trace.counter(kTrackNet, "net traffic", at,
                  {{"msgs_sent", total.msgs_sent},
                   {"msgs_recv", total.msgs_recv}});
    observer_.metrics
        .histogram("phase." + std::string(net::phase_name(open_phase_)) +
                   ".msgs_sent")
        .record(static_cast<double>(msgs));
    windows_.push_back({open_phase_, open_phase_at_, at});
  }
  open_phase_ = phase;
  open_phase_at_ = at;
  open_phase_mark_ = total;
  if (phase != net::Phase::kIdle) {
    trace.begin(kTrackProtocol, std::string(net::phase_name(phase)), "phase",
                at);
  }
}

void EngineTrace::emit(Event event, net::Time at, std::uint32_t committee,
                       std::initializer_list<double> args) {
  const EventSpec& spec = kEvents[static_cast<std::size_t>(event)];
  Registry& metrics = observer_.metrics;
  if (spec.name.empty()) {
    metrics.counter(std::string(spec.counter))
        .add(static_cast<std::uint64_t>(*args.begin()));
    return;
  }
  Tracer::Args named;
  const std::string_view* arg_name = spec.args.data();
  for (double value : args) named.emplace_back(std::string(*arg_name++), value);
  const bool on_committee = spec.committee_track && committee < m_;
  observer_.trace.instant(
      on_committee ? kTrackCommitteeBase + committee : kTrackProtocol,
      std::string(spec.name), std::string(spec.category), at,
      std::move(named));
  if (!spec.counter.empty()) metrics.counter(std::string(spec.counter)).add();
}

void EngineTrace::round_end(const protocol::RoundReport& report,
                            const protocol::RoundAssignment& assignment,
                            const net::TrafficStats& stats, net::Time at) {
  phase(net::Phase::kIdle, at, stats);  // close the last phase span
  Tracer& trace = observer_.trace;

  // Committee tracks mirror the phase schedule with per-committee traffic
  // (summed over the round's membership) attached to each phase span.
  for (std::uint32_t k = 0; k < m_; ++k) {
    const std::uint32_t track = kTrackCommitteeBase + k;
    const protocol::CommitteeRoundStats& cs = report.committees[k];
    const std::vector<net::NodeId> members =
        assignment.committees[k].all_members();
    trace.begin(track, "round " + std::to_string(report.round), "round",
                round_start_);
    for (const PhaseWindow& w : windows_) {
      std::uint64_t msgs = 0;
      std::uint64_t bytes = 0;
      for (net::NodeId id : members) {
        const net::Counter& c = stats.at(id, w.phase);
        msgs += c.msgs_sent;
        bytes += c.bytes_sent;
      }
      trace.begin(track, std::string(net::phase_name(w.phase)), "phase",
                  w.begin);
      trace.end(track, w.end, {{"msgs_sent", msgs}, {"bytes_sent", bytes}});
    }
    trace.end(track, at,
              {{"txs_listed", cs.txs_listed},
               {"txs_committed", cs.txs_committed},
               {"recoveries", cs.recoveries},
               {"produced_output", cs.produced_output ? 1.0 : 0.0}});
  }

  const protocol::OpenLoopRoundStats& ol = report.open_loop;
  if (open_loop_) {
    trace.counter(kTrackMempool, "mempool", at,
                  {{"backlog", ol.backlog},
                   {"admitted", ol.admitted},
                   {"dropped", ol.mempool_dropped}});
  }
  const net::Counter total = stats.grand_total();
  trace.end(kTrackProtocol, at,
            {{"msgs_sent", total.msgs_sent},
             {"bytes_sent", total.bytes_sent},
             {"committed", report.txs_committed},
             {"recoveries", report.recoveries}});

  // ---- metrics registry flush ---- `stats` holds this round's traffic
  // only (start_round_state resets it), so each cell is added once.
  Registry& m = observer_.metrics;
  m.counter("engine.rounds").add();
  m.counter("engine.txs_offered").add(report.txs_offered);
  m.counter("engine.txs_committed").add(report.txs_committed);
  m.counter("engine.cross_committed").add(report.cross_committed);
  m.counter("engine.recoveries").add(report.recoveries);
  if (report.block_void) m.counter("engine.blocks_void").add();
  m.histogram("round.sim_duration").record(report.round_latency);

  for (std::size_t p = 0; p < static_cast<std::size_t>(net::Phase::kCount);
       ++p) {
    const auto phase = static_cast<net::Phase>(p);
    for (std::size_t t = 0; t < net::kTagCount; ++t) {
      const auto tag = static_cast<net::Tag>(t);
      const net::Counter& c = stats.at(phase, tag);
      if (c.msgs_sent == 0 && c.msgs_recv == 0) continue;
      const std::string cell = std::string(net::phase_name(phase)) + "." +
                               std::string(net::tag_name(tag));
      if (c.msgs_sent != 0) {
        m.counter("net.sent." + cell + ".msgs").add(c.msgs_sent);
        m.counter("net.sent." + cell + ".bytes").add(c.bytes_sent);
      }
      if (c.msgs_recv != 0) {
        m.counter("net.recv." + cell + ".msgs").add(c.msgs_recv);
        m.counter("net.recv." + cell + ".bytes").add(c.bytes_recv);
      }
    }
  }
  // Only non-zero fault counts create a key, so a fault-free run's
  // registry has no net.fault.* entries.
  const net::FaultStats& f = stats.faults();
  for (const auto& [name, value] :
       {std::pair{"partition_dropped", f.partition_dropped},
        std::pair{"blackout_dropped", f.blackout_dropped},
        std::pair{"lost", f.lost}, std::pair{"duplicated", f.duplicated},
        std::pair{"reordered", f.reordered}}) {
    if (value != 0) m.counter(std::string("net.fault.") + name).add(value);
  }

  if (open_loop_) {
    m.counter("mempool.arrived").add(ol.arrived);
    m.counter("mempool.admitted").add(ol.admitted);
    m.counter("mempool.dropped").add(ol.mempool_dropped);
    m.counter("mempool.drained").add(ol.drained);
    m.gauge("mempool.backlog").set(static_cast<double>(ol.backlog));
    for (std::size_t k = 0; k < ol.occupancy.size(); ++k) {
      m.gauge("mempool.occupancy." + std::to_string(k))
          .set(static_cast<double>(ol.occupancy[k]));
    }
    for (double latency : ol.latencies) {
      m.histogram("mempool.commit_latency").record(latency);
    }
  }
}

}  // namespace cyc::obs
