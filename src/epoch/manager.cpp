#include "epoch/manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "crypto/pow.hpp"
#include "crypto/pvss.hpp"

namespace cyc::epoch {

EpochManager::EpochManager(protocol::Params params,
                           protocol::AdversaryConfig adversary,
                           EpochConfig config,
                           protocol::EngineOptions options)
    : config_(config),
      engine_(std::make_unique<protocol::Engine>(params, adversary, options)),
      rng_(rng::Stream(params.seed).fork("epoch-manager")) {
  if (config_.epochs == 0 || config_.rounds_per_epoch == 0) {
    throw std::invalid_argument("EpochManager: epochs and rounds_per_epoch "
                                "must be positive");
  }
}

EpochManager::~EpochManager() = default;

protocol::RoundReport EpochManager::run_round() {
  if (finished()) {
    throw std::logic_error("EpochManager: schedule already complete");
  }
  protocol::RoundReport report = engine_->run_round();
  rounds_run_ += 1;
  round_in_epoch_ += 1;
  if (round_in_epoch_ >= config_.rounds_per_epoch &&
      epoch_ + 1 < config_.epochs) {
    perform_boundary();
    epoch_ += 1;
    round_in_epoch_ = 0;
  }
  return report;
}

void EpochManager::perform_boundary() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t entering = epoch_ + 1;

  // --- 1. Epoch randomness: one PVSS beacon round among C_R. -------------
  // Each referee of the upcoming assignment deals a sharing of its secret
  // contribution; a misbehaving referee publishes a corrupted share and
  // is disqualified by the public verification, so the sum — and hence
  // the epoch randomness — stays unbiased while C_R is honest-majority.
  const std::vector<net::NodeId> referees = engine_->assignment().referees;
  rng::Stream beacon_rng = rng_.fork("beacon").fork(entering);
  std::vector<std::uint64_t> secrets;
  std::vector<std::size_t> cheaters;
  secrets.reserve(referees.size());
  for (std::size_t d = 0; d < referees.size(); ++d) {
    secrets.push_back(beacon_rng.below(crypto::kQ));
    if (engine_->misbehaved(referees[d], engine_->round())) {
      cheaters.push_back(d);
    }
  }
  const crypto::BeaconResult beacon = crypto::RandomnessBeacon::run(
      engine_->round(), secrets, cheaters, beacon_rng);
  // Bind the beacon output to the chain head: the epoch randomness only
  // makes sense relative to the state being handed across.
  const crypto::Digest randomness = crypto::sha256_concat(
      {bytes_of("cyc.epoch.rand"), be64(entering),
       crypto::digest_to_bytes(beacon.randomness),
       crypto::digest_to_bytes(engine_->chain().tip().hash())});

  // --- 2. Identity churn under the bounded budget. -----------------------
  const std::vector<net::NodeId> members = engine_->members();
  std::vector<net::NodeId> pool;
  for (std::size_t i = 0; i < engine_->node_count(); ++i) {
    const auto id = static_cast<net::NodeId>(i);
    if (!engine_->enrolled(id)) pool.push_back(id);
  }
  const double rate =
      std::clamp(std::min(config_.churn_rate, kMaxChurnFraction), 0.0, 1.0);
  std::size_t budget = static_cast<std::size_t>(
      std::floor(rate * static_cast<double>(members.size())));
  budget = std::min(budget, pool.size());

  // Joining identities solve the epoch puzzle keyed on the fresh
  // randomness (so solutions cannot be precomputed) and their own public
  // key (so they cannot be shared). Candidates are drawn from the pool by
  // the epoch rng; one seat is churned per successful solver.
  std::vector<net::NodeId> candidates = pool;
  rng::Stream join_rng = rng_.fork("join").fork(entering);
  rng::shuffle(candidates, join_rng);
  candidates.resize(budget);
  const std::uint64_t target =
      crypto::pow_target_for_bits(kJoinPowBits);
  std::vector<net::NodeId> joined;
  for (net::NodeId id : candidates) {
    const Bytes challenge =
        concat({bytes_of("cyc.epoch.join"), be64(entering),
                crypto::digest_to_bytes(randomness),
                be64(engine_->public_key(id).y)});
    const auto solution =
        crypto::pow_solve(challenge, target, 0, kJoinPowMaxIters);
    if (!solution) continue;  // budget seat stays un-churned this epoch
    // Registration path: the referees re-verify the submitted solution.
    if (!crypto::pow_verify(challenge, target, *solution)) continue;
    joined.push_back(id);
  }

  // Retire exactly as many members as successfully joined — the
  // membership size (and with it every committee size) is conserved, and
  // the churn stays within the budget by construction.
  std::vector<net::NodeId> retire_order = members;
  rng::Stream retire_rng = rng_.fork("retire").fork(entering);
  rng::shuffle(retire_order, retire_rng);
  std::vector<net::NodeId> retired(retire_order.begin(),
                                   retire_order.begin() +
                                       static_cast<std::ptrdiff_t>(joined.size()));

  std::set<net::NodeId> next_members(members.begin(), members.end());
  for (net::NodeId id : retired) next_members.erase(id);
  for (net::NodeId id : joined) next_members.insert(id);

  // --- 3. Reconfigure the engine; 4. record the handoff. -----------------
  protocol::Reconfiguration reconfig;
  reconfig.epoch = entering;
  reconfig.members.assign(next_members.begin(), next_members.end());
  reconfig.randomness = randomness;
  engine_->reconfigure(reconfig);

  // --- 3b. Load-aware re-draw (src/epoch/rebalance.hpp). -----------------
  // Runs after reconfigure so the fair-draw gate sees the entering
  // membership, and before the handoff so the plan is part of the audit
  // record. The planner is RNG-free, so this block consumes none of the
  // boundary's deterministic randomness streams.
  std::optional<RebalancePlan> plan;
  if (engine_->params().rebalance) {
    engine_->roll_rebalance_window();
    const auto& wl = engine_->workload();
    std::vector<std::pair<std::uint64_t, ledger::ShardId>> accounts;
    accounts.reserve(wl.config().users);
    for (std::uint32_t u = 0; u < wl.config().users; ++u) {
      const crypto::PublicKey& pk = wl.user_pk(u);
      accounts.emplace_back(pk.y, engine_->shard_map()->shard(pk));
    }
    std::size_t corrupt = 0;
    for (net::NodeId id : reconfig.members) {
      if (engine_->misbehaved(id, engine_->round())) corrupt += 1;
    }
    plan = plan_rebalance(rebalance_config(engine_->params()),
                          *engine_->shard_map(),
                          engine_->last_rebalance_window(), accounts,
                          reconfig.members.size(), corrupt,
                          engine_->params().c, entering);
    auto next_map = std::make_shared<const ledger::ShardMap>(
        engine_->shard_map()->apply(plan->moves));
    plan->migrated_outputs = engine_->apply_rebalance(next_map, plan->moves);
  }

  handoffs_.push_back(build_handoff(*engine_, entering, std::move(joined),
                                    std::move(retired), candidates.size(),
                                    beacon.disqualified.size()));
  handoffs_.back().plan = std::move(plan);
  transition_wall_ms_.push_back(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace cyc::epoch
