#include "harness/runner.hpp"

#include "epoch/manager.hpp"
#include "support/parallel.hpp"

namespace cyc::harness {

namespace {

// Mid-run corruption / churn: requested at round start, effective one
// round later (§III-C). Fault-fabric events (partition / blackout /
// restart) take effect immediately — they model the network, not key
// corruption. Targets resolve against the round's roles.
void apply_events(const ScenarioSpec& spec, protocol::Engine& engine,
                  std::uint64_t round) {
  for (const auto& ev : spec.events) {
    if (ev.round != round) continue;
    std::vector<net::NodeId> victims;
    switch (ev.target) {
      case ScenarioEvent::Target::kNode:
        if (ev.node < engine.node_count()) victims.push_back(ev.node);
        break;
      case ScenarioEvent::Target::kLeaderOf:
        if (ev.committee < engine.assignment().committees.size()) {
          victims.push_back(engine.assignment().committees[ev.committee].leader);
        }
        break;
      case ScenarioEvent::Target::kRefereeAt:
        if (!engine.assignment().referees.empty()) {
          victims.push_back(engine.assignment()
                                .referees[ev.committee %
                                          engine.assignment().referees.size()]);
        }
        break;
      case ScenarioEvent::Target::kCommittee:
        if (ev.committee < engine.assignment().committees.size()) {
          victims = engine.assignment().committees[ev.committee].all_members();
        }
        break;
    }
    switch (ev.kind) {
      case ScenarioEvent::Kind::kCorrupt:
        for (net::NodeId v : victims) engine.corrupt(v, ev.behavior);
        break;
      case ScenarioEvent::Kind::kCrash:
        for (net::NodeId v : victims) {
          engine.corrupt(v, protocol::Behavior::kCrash);
        }
        break;
      case ScenarioEvent::Kind::kRestart:
        for (net::NodeId v : victims) engine.restart(v);
        break;
      case ScenarioEvent::Kind::kPartition:
        if (!victims.empty()) {
          engine.partition(victims, ev.round, ev.round + ev.duration);
        }
        break;
      case ScenarioEvent::Kind::kHeal:
        engine.heal(ev.round);
        break;
      case ScenarioEvent::Kind::kBlackout:
        for (net::NodeId v : victims) {
          engine.blackout(v, ev.round, ev.round + ev.duration);
        }
        break;
    }
  }
}

void accumulate(ScenarioOutcome& outcome,
                const protocol::RoundReport& report) {
  outcome.committed += report.txs_committed;
  outcome.offered += report.txs_offered;
  outcome.cross_committed += report.cross_committed;
  outcome.recoveries += report.recoveries;
  outcome.invalid_committed += report.invalid_committed;
  outcome.total_fees += report.total_fees;
  outcome.faults += report.faults;
}

std::string digest_hex(const crypto::Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

}  // namespace

std::string trace_file_name(const std::string& scenario, std::uint64_t seed) {
  std::string name;
  name.reserve(scenario.size());
  for (char c : scenario) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    name.push_back(keep ? c : '-');
  }
  return name + "-s" + std::to_string(seed) + ".trace.json";
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, std::uint64_t seed,
                             obs::Observer* observer) {
  protocol::Params params = spec.params;
  params.seed = seed;

  ScenarioOutcome outcome;
  outcome.scenario = spec.name;
  outcome.seed = seed;
  outcome.epochs = spec.epochs;

  // The epoch lifecycle drives the engine; with one epoch it only calls
  // Engine::run_round. Every boundary's EpochHandoff is audited in
  // addition to the per-round suite. Event rounds are absolute
  // (continuing across boundaries).
  epoch::EpochConfig config;
  config.epochs = spec.epochs;
  config.rounds_per_epoch = spec.rounds;
  config.churn_rate = spec.churn_rate;
  epoch::EpochManager manager(params, spec.adversary, config, spec.options);
  manager.engine().attach_observer(observer);
  InvariantChecker checker(manager.engine());
  outcome.rounds = manager.total_rounds();

  std::size_t audited = 0;
  for (std::uint64_t r = 1; !manager.finished(); ++r) {
    apply_events(spec, manager.engine(), r);
    const protocol::RoundReport report = manager.run_round();
    checker.check_round(report);
    accumulate(outcome, report);
    while (audited < manager.handoffs().size()) {
      checker.check_epoch_boundary(manager.handoffs()[audited]);
      audited += 1;
    }
  }
  for (const auto& handoff : manager.handoffs()) {
    outcome.members_joined += handoff.joined.size();
    outcome.members_retired += handoff.retired.size();
  }
  outcome.boundaries = manager.handoffs().size();
  if (!manager.handoffs().empty()) {
    outcome.last_handoff_digest =
        digest_hex(manager.handoffs().back().digest());
  }
  outcome.carryover = manager.engine().carryover_size();
  outcome.chain_height = manager.engine().chain().height();
  outcome.violations = checker.violations();
  return outcome;
}

MatrixResult run_matrix(const std::vector<ScenarioSpec>& scenarios,
                        unsigned threads, const TraceOptions* trace) {
  // Flatten (scenario, seed) into one job list so the pool load-balances
  // across both axes; parallel_sweep returns results in index order, so
  // the matrix outcome is independent of scheduling.
  struct Job {
    const ScenarioSpec* spec;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  for (const auto& spec : scenarios) {
    for (std::uint64_t seed : spec.seeds) jobs.push_back({&spec, seed});
  }

  MatrixResult result;
  result.outcomes = support::parallel_sweep(
      jobs.size(),
      [&](std::size_t i) {
        if (trace == nullptr) {
          return run_scenario(*jobs[i].spec, jobs[i].seed);
        }
        // One observer and one file per point: the artifact set does not
        // depend on which worker ran which job.
        obs::Observer observer;
        ScenarioOutcome outcome =
            run_scenario(*jobs[i].spec, jobs[i].seed, &observer);
        obs::write_trace_file(
            trace->dir + "/" +
                trace_file_name(jobs[i].spec->name, jobs[i].seed),
            observer);
        return outcome;
      },
      threads);
  return result;
}

std::string matrix_json(const std::vector<ScenarioSpec>& scenarios,
                        const MatrixResult& result) {
  support::JsonWriter json;
  json.begin_object();
  json.field("harness", "scenario_matrix");
  json.field("scenarios", static_cast<std::uint64_t>(scenarios.size()));
  json.field("points", static_cast<std::uint64_t>(result.outcomes.size()));
  json.field("violations",
             static_cast<std::uint64_t>(result.total_violations()));
  json.field("all_green", result.all_green());
  json.key("specs");
  json.begin_array();
  for (const auto& spec : scenarios) spec.to_json(json);
  json.end_array();
  json.key("outcomes");
  json.begin_array();
  for (const auto& o : result.outcomes) {
    json.begin_object();
    json.field("scenario", o.scenario);
    json.field("seed", o.seed);
    json.field("rounds", static_cast<std::uint64_t>(o.rounds));
    json.field("committed", o.committed);
    json.field("offered", o.offered);
    json.field("cross_committed", o.cross_committed);
    json.field("recoveries", o.recoveries);
    json.field("invalid_committed", o.invalid_committed);
    json.field("carryover", o.carryover);
    json.field("chain_height", o.chain_height);
    json.field("total_fees", o.total_fees);
    if (o.faults.injected() != 0) {
      // Omit-when-zero: fault-free points keep their exact pre-fault
      // artifact bytes.
      json.key("faults");
      json.begin_object();
      if (o.faults.partition_dropped != 0) {
        json.field("partition_dropped", o.faults.partition_dropped);
      }
      if (o.faults.blackout_dropped != 0) {
        json.field("blackout_dropped", o.faults.blackout_dropped);
      }
      if (o.faults.lost != 0) json.field("lost", o.faults.lost);
      if (o.faults.duplicated != 0) {
        json.field("duplicated", o.faults.duplicated);
      }
      if (o.faults.reordered != 0) json.field("reordered", o.faults.reordered);
      json.end_object();
    }
    json.field("epochs", o.epochs);
    json.field("boundaries", o.boundaries);
    json.field("members_joined", o.members_joined);
    json.field("members_retired", o.members_retired);
    json.field("last_handoff_digest", o.last_handoff_digest);
    json.key("violations");
    json.begin_array();
    for (const auto& v : o.violations) {
      json.begin_object();
      json.field("invariant", v.invariant);
      json.field("round", v.round);
      json.field("detail", v.detail);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace cyc::harness
