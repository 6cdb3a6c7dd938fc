#include "fuzz/shrinker.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "harness/runner.hpp"

namespace cyc::fuzz {

namespace {

using harness::ScenarioEvent;
using harness::ScenarioSpec;

/// Shared shrink state: the current minimal spec plus the budget
/// bookkeeping every pass updates through `try_candidate`.
struct Shrinker {
  ScenarioSpec current;
  const std::string& invariant;
  const Oracle& oracle;
  const ShrinkOptions& options;
  std::size_t attempts = 0;
  std::size_t accepted = 0;
  bool exhausted = false;

  bool budget_left() {
    if (attempts >= options.max_attempts) exhausted = true;
    return !exhausted;
  }

  bool still_fails(const ScenarioSpec& candidate) {
    attempts += 1;
    for (const auto& violation : oracle(candidate)) {
      if (violation.invariant == invariant) return true;
    }
    return false;
  }

  /// Accept `candidate` as the new current spec iff it still fails.
  bool try_candidate(const ScenarioSpec& candidate) {
    if (!budget_left()) return false;
    if (!still_fails(candidate)) return false;
    current = candidate;
    accepted += 1;
    return true;
  }

  // --- passes; each returns true when it changed the spec ---

  /// A multi-seed failure usually reproduces on one seed; keep the first
  /// seed that does.
  bool isolate_seed() {
    if (current.seeds.size() <= 1) return false;
    for (std::uint64_t seed : current.seeds) {
      ScenarioSpec candidate = current;
      candidate.seeds = {seed};
      if (try_candidate(candidate)) return true;
      if (exhausted) return false;
    }
    return false;
  }

  /// ddmin over the event schedule: remove chunks at halving granularity,
  /// then single events, until no removal reproduces (1-minimal).
  bool ddmin_events() {
    bool changed = false;
    std::size_t chunk = std::max<std::size_t>(current.events.size() / 2, 1);
    while (!current.events.empty()) {
      bool removed_any = false;
      for (std::size_t at = 0; at < current.events.size();) {
        ScenarioSpec candidate = current;
        const std::size_t take =
            std::min(chunk, candidate.events.size() - at);
        candidate.events.erase(candidate.events.begin() + at,
                               candidate.events.begin() + at + take);
        if (try_candidate(candidate)) {
          removed_any = true;
          changed = true;  // keep `at`: the next chunk slid into place
        } else {
          if (exhausted) return changed;
          at += take;
        }
      }
      if (!removed_any) {
        if (chunk == 1) break;
        chunk = std::max<std::size_t>(chunk / 2, 1);
      }
    }
    return changed;
  }

  /// Fewest rounds per epoch that still reproduce: halve greedily, then
  /// step down one at a time.
  bool reduce_rounds() {
    bool changed = false;
    while (current.rounds > 1) {
      ScenarioSpec candidate = current;
      candidate.rounds = std::max<std::size_t>(current.rounds / 2, 1);
      if (!try_candidate(candidate)) {
        if (exhausted) return changed;
        candidate = current;
        candidate.rounds = current.rounds - 1;
        if (!try_candidate(candidate)) break;
      }
      changed = true;
    }
    return changed;
  }

  bool reduce_epochs() {
    bool changed = false;
    while (current.epochs > 1) {
      ScenarioSpec candidate = current;
      candidate.epochs = current.epochs - 1;
      if (candidate.epochs == 1) {
        candidate.churn_rate = 0.0;
        candidate.params.standby = 0;
      }
      if (!try_candidate(candidate)) break;
      changed = true;
    }
    if (current.epochs > 1 && current.churn_rate > 0.0) {
      ScenarioSpec candidate = current;
      candidate.churn_rate = 0.0;
      candidate.params.standby = 0;
      changed |= try_candidate(candidate);
    }
    return changed;
  }

  /// Normalize one field back toward its default via `mutate`; keep the
  /// reduction only when the failure survives.
  template <typename Mutate>
  bool normalize(Mutate mutate) {
    ScenarioSpec candidate = current;
    mutate(candidate);
    if (candidate.to_json_text() == current.to_json_text()) return false;
    return try_candidate(candidate);
  }

  /// Reset every stress axis that is not load-bearing for the failure:
  /// adversary, workload knobs, delay regime, capacity skew, options.
  bool normalize_axes() {
    bool changed = false;
    const protocol::Params defaults;
    changed |= normalize([](ScenarioSpec& s) {
      s.adversary = protocol::AdversaryConfig{};
      s.adversary.mix.clear();
      s.adversary.corrupt_fraction = 0.0;
    });
    if (exhausted) return changed;
    // A narrower mix may suffice: try each single behaviour.
    if (current.adversary.mix.size() > 1) {
      for (const auto& entry : std::vector<protocol::AdversaryConfig::Weight>(
               current.adversary.mix)) {
        changed |= normalize([&](ScenarioSpec& s) {
          s.adversary.mix = {entry};
        });
        if (exhausted) return changed;
        if (current.adversary.mix.size() == 1) break;
      }
    }
    changed |= normalize([](ScenarioSpec& s) {
      s.adversary.forced_corrupt_leader_fraction = -1.0;
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      s.params.cross_shard_fraction = defaults.cross_shard_fraction;
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      s.params.invalid_fraction = 0.0;
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      s.params.capacity_min = defaults.capacity_min;
      s.params.capacity_max = defaults.capacity_max;
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      s.params.delays = net::DelayModel{};
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      s.params.faults = net::FaultProfile{};
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      s.options = protocol::EngineOptions{};
    });
    if (exhausted) return changed;
    changed |= normalize([&](ScenarioSpec& s) {
      if (s.params.standby > 0 && s.epochs <= 1) s.params.standby = 0;
    });
    return changed;
  }
};

}  // namespace

Oracle default_oracle() {
  return [](const ScenarioSpec& spec) {
    std::vector<harness::Violation> violations;
    for (std::uint64_t seed : spec.seeds) {
      const harness::ScenarioOutcome outcome =
          harness::run_scenario(spec, seed);
      violations.insert(violations.end(), outcome.violations.begin(),
                        outcome.violations.end());
    }
    return violations;
  };
}

ShrinkResult shrink(const ScenarioSpec& spec, const std::string& invariant,
                    const Oracle& oracle, const ShrinkOptions& options) {
  Shrinker state{spec, invariant, oracle, options};
  if (!state.still_fails(spec)) {
    throw std::invalid_argument(
        "shrink: spec does not flag invariant '" + invariant + "'");
  }
  // Loop every pass to a fixpoint: a later pass (e.g. dropping the
  // adversary) can unlock an earlier one (e.g. fewer rounds).
  bool changed = true;
  while (changed && !state.exhausted) {
    changed = false;
    changed |= state.isolate_seed();
    changed |= state.ddmin_events();
    changed |= state.reduce_rounds();
    changed |= state.reduce_epochs();
    changed |= state.normalize_axes();
  }
  ShrinkResult result;
  result.spec = std::move(state.current);
  result.invariant = invariant;
  result.attempts = state.attempts;
  result.accepted = state.accepted;
  result.exhausted = state.exhausted;
  return result;
}

}  // namespace cyc::fuzz
