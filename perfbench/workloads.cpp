// Workload definitions and the episode driver.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "crypto/schnorr.hpp"
#include "harness/invariants.hpp"
#include "net/message.hpp"
#include "perfbench.hpp"

namespace cyc::perfbench {

namespace {

double nominal_round_duration(const protocol::Params& p) {
  return (p.config_duration + p.semicommit_duration + p.intra_duration +
          p.inter_duration + p.reputation_duration + p.selection_duration +
          p.block_duration) *
         p.delays.delta;
}

/// Open-loop arrival rate at `load` times nominal capacity
/// (m * txs_per_committee transactions per round).
double arrival_rate_at(const protocol::Params& p, double load) {
  return load * static_cast<double>(p.m * p.txs_per_committee) /
         nominal_round_duration(p);
}

std::string tx_key(const ledger::Transaction& tx) {
  const auto id = tx.id();
  return std::string(id.begin(), id.end());
}

}  // namespace

Workload make_workload(const std::string& name) {
  Workload w;
  protocol::Params& p = w.params;
  p.c = 10;
  p.lambda = 2;
  p.referee_size = 5;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  if (name == "paper64-closed") {
    // The paper-scale point of bench_throughput_scalability: n = 645,
    // honest, closed loop; message-bound.
    p.m = 64;
    p.txs_per_committee = 12;
    p.users = 24 * p.m;
    w.options.engine_threads = 4;
    w.rounds = 3;
    w.episode_seeds = 1;
    w.cross_thread_check = true;
  } else if (name == "zipf-ledger-open") {
    // Transaction-bound: long TXLists over ~1e5 Zipf(1.1) accounts, open
    // loop just under saturation. Vote capacity covers the whole list and
    // the mempool bound is never reached, so no arrival is refused.
    p.m = 4;
    p.txs_per_committee = 128;
    p.users = 100000;
    p.zipf_s = 1.1;
    p.capacity_min = 256;
    p.capacity_max = 256;
    p.mempool_cap = 1u << 16;
    p.arrival_rate = arrival_rate_at(p, 0.9);
    // Many short episodes rather than one long one: how often the hottest
    // shard spills past its list budget depends on the seed, and it sets
    // commit_latency_p99, so each pass averages over six seeds.
    w.rounds = 4;
    w.episode_seeds = 6;
  } else if (name == "adversarial-epochs") {
    // Recovery / impeachment, lossy wide-area links and epoch churn with
    // the invariant checker on every round and boundary.
    p.m = 16;
    p.txs_per_committee = 12;
    p.users = 40 * p.m;
    p.zipf_s = 1.1;
    p.mempool_cap = 1u << 12;
    p.arrival_rate = arrival_rate_at(p, 0.7);
    p.faults.drop = 0.02;
    p.standby = 48;
    p.rebalance = true;
    w.adversary.corrupt_fraction = 0.15;
    w.adversary.forced_corrupt_leader_fraction = 0.25;
    // Short epochs and ten seeds per pass, for the same reason as above:
    // the share of transactions a recovery delays by a round depends on
    // where the seed puts the corrupt nodes.
    epoch::EpochConfig e;
    e.epochs = 3;
    e.rounds_per_epoch = 3;
    e.churn_rate = 0.1;
    w.epochs = e;
    w.episode_seeds = 10;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t episode_seed(std::uint64_t seed, std::size_t index) {
  return seed ^ (static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ull);
}

void SpanLog::add(std::string name, std::uint64_t episode, std::uint64_t round,
                  Clock::time_point begin, Clock::time_point end) {
  spans_.push_back({std::move(name), episode, round,
                    ms_between(origin_, begin) * 1e3,
                    ms_between(begin, end) * 1e3});
}

Episode run_episode(const Workload& workload, std::uint64_t seed,
                    const EpisodeOptions& opt) {
  protocol::Params params = workload.params;
  params.seed = seed;
  protocol::EngineOptions options = workload.options;
  if (opt.engine_threads != 0) options.engine_threads = opt.engine_threads;

  Episode ep;
  ep.seed = seed;
  crypto::verify_cache::clear();

  // --- set-up: constructor (+ observer, + checker) ---
  const auto setup_begin = Clock::now();
  std::unique_ptr<epoch::EpochManager> manager;
  std::unique_ptr<protocol::Engine> bare;
  if (workload.epochs) {
    manager = std::make_unique<epoch::EpochManager>(
        params, workload.adversary, *workload.epochs, options);
  } else {
    bare = std::make_unique<protocol::Engine>(params, workload.adversary,
                                              options);
  }
  protocol::Engine& engine = manager ? manager->engine() : *bare;
  if (opt.observer != nullptr) engine.attach_observer(opt.observer);
  std::unique_ptr<harness::InvariantChecker> checker;
  if (manager) checker = std::make_unique<harness::InvariantChecker>(engine);
  const auto setup_end = Clock::now();
  ep.setup_s = ms_between(setup_begin, setup_end) / 1e3;
  if (opt.spans) opt.spans->add("setup", opt.index, 0, setup_begin, setup_end);

  const std::size_t total = manager ? manager->total_rounds() : workload.rounds;
  const std::size_t rounds =
      opt.max_rounds != 0 ? std::min(opt.max_rounds, total) : total;
  const std::uint64_t allocs0 = net::payload_allocations();
  const std::uint64_t bytes0 = net::payload_bytes_allocated();
  const double delta = params.delays.delta;
  const std::size_t want =
      static_cast<std::size_t>(params.txs_per_committee) * params.m;

  std::unordered_map<std::string, double> offered_at;  // closed loop only
  std::vector<ledger::Block> blocks;
  std::size_t audited = 0;
  std::size_t boundaries_seen = 0;
  std::uint64_t shortfall_prev = 0;
  static const std::vector<epoch::EpochHandoff> kNoHandoffs;
  const auto& handoffs = manager ? manager->handoffs() : kNoHandoffs;

  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t carried_in = engine.carryover_size();
    const double round_start = engine.net().now();

    const auto a = Clock::now();
    const protocol::RoundReport report =
        manager ? manager->run_round() : engine.run_round();
    const auto b = Clock::now();
    if (checker) {
      checker->check_round(report);
      while (audited < handoffs.size()) {
        checker->check_epoch_boundary(handoffs[audited]);
        audited += 1;
      }
    }
    const auto c = Clock::now();

    RoundTiming t;
    t.wall_ms = ms_between(a, c);
    t.run_round_ms = ms_between(a, b);
    if (checker) t.check_ms = ms_between(b, c);
    if (manager && manager->transition_wall_ms().size() > boundaries_seen) {
      boundaries_seen = manager->transition_wall_ms().size();
      t.boundary_ms = manager->transition_wall_ms().back();
    }
    ep.timings.push_back(t);
    if (opt.spans) {
      opt.spans->add("run_round", opt.index, report.round, a, b);
      if (checker) opt.spans->add("check_round", opt.index, report.round, b, c);
      if (t.boundary_ms > 0) {
        // The boundary runs at the tail of EpochManager::run_round; its
        // duration comes from transition_wall_ms().
        const auto dur = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(t.boundary_ms));
        opt.spans->add("boundary", opt.index, report.round, b - dur, b);
      }
    }

    if (report.invalid_committed > 0) {
      throw GateFailure("round " + std::to_string(report.round) +
                        " committed " +
                        std::to_string(report.invalid_committed) +
                        " invalid transaction(s)");
    }
    if (checker && !checker->violations().empty()) {
      const harness::Violation& v = checker->violations().front();
      throw GateFailure("invariant " + v.invariant + " violated in round " +
                        std::to_string(v.round) + ": " + v.detail);
    }

    RoundCounters rc;
    rc.committed = report.txs_committed;
    rc.invalid_committed = report.invalid_committed;
    rc.recoveries = report.recoveries;
    for (const auto& [role, per_phase] : report.traffic_by_role_phase) {
      for (std::size_t p = 0; p < per_phase.size() && p < kPhaseSlots; ++p) {
        rc.phase_msgs[p] += per_phase[p].msgs_sent;
        rc.phase_bytes[p] += per_phase[p].bytes_sent;
      }
    }
    if (engine.open_loop()) {
      const protocol::OpenLoopRoundStats& ol = report.open_loop;
      if (ol.arrived != ol.admitted + ol.mempool_dropped + ol.exhausted) {
        throw GateFailure("open-loop conservation broken in round " +
                          std::to_string(report.round) + ": arrived " +
                          std::to_string(ol.arrived) + " != admitted " +
                          std::to_string(ol.admitted) + " + dropped " +
                          std::to_string(ol.mempool_dropped) +
                          " + exhausted " + std::to_string(ol.exhausted));
      }
      rc.submitted = ol.arrived;
      rc.refused = ol.mempool_dropped + ol.exhausted;
      rc.backlog = ol.backlog;
      rc.source_shortfall = ol.source_shortfall;
      rc.latencies.reserve(ol.latencies.size());
      for (double l : ol.latencies) rc.latencies.push_back(l / delta);
      if (report.recoveries > 0) ep.arrivals_during_recovery += ol.arrived;
    } else {
      // Closed loop: the fixed batch tops the lists up to `want`; a
      // transaction is offered at the start of the round that first lists
      // it and commits at the end of the round whose block carries it.
      const std::uint64_t shortfall = engine.workload().shortfall();
      rc.submitted = want > carried_in ? want - carried_in : 0;
      rc.refused = shortfall - shortfall_prev;
      rc.source_shortfall = shortfall;
      shortfall_prev = shortfall;
      const double round_end = engine.net().now();
      for (const ledger::Transaction& tx : engine.last_block().txs) {
        const auto it = offered_at.find(tx_key(tx));
        const double offered =
            it != offered_at.end() ? it->second : round_start;
        rc.latencies.push_back((round_end - offered) / delta);
        if (it != offered_at.end()) offered_at.erase(it);
      }
      for (const ledger::Transaction& tx : engine.carryover()) {
        offered_at.try_emplace(tx_key(tx), round_start);
      }
    }
    ep.counters.push_back(std::move(rc));
    if (opt.at_end) blocks.push_back(engine.last_block());
  }

  ep.layers.payload_allocs = net::payload_allocations() - allocs0;
  ep.layers.payload_bytes = net::payload_bytes_allocated() - bytes0;
  ep.layers.verify_hits = crypto::verify_cache::hits();
  ep.layers.verify_misses = crypto::verify_cache::misses();
  if (opt.observer != nullptr) {
    if (const auto* certs = opt.observer->metrics.find_counter("consensus.certs")) {
      ep.layers.certs = certs->value();
    }
  }
  for (const epoch::EpochHandoff& h : handoffs) {
    if (h.plan) ep.layers.migrated_outputs += h.plan->migrated_outputs;
  }
  if (opt.at_end) opt.at_end(engine, blocks, handoffs);
  if (opt.observer != nullptr) engine.attach_observer(nullptr);
  return ep;
}

}  // namespace cyc::perfbench
