#include "harness/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/bounds.hpp"
#include "ledger/validator.hpp"

namespace cyc::harness {

namespace {

std::string tx_key(const ledger::Transaction& tx) {
  const auto id = tx.id();
  return std::string(id.begin(), id.end());
}

std::string hex_prefix(const ledger::TxId& id) {
  char buf[17];
  for (int i = 0; i < 8; ++i) {
    std::snprintf(buf + 2 * i, 3, "%02x", id[static_cast<std::size_t>(i)]);
  }
  return std::string(buf, 16);
}

ledger::Amount total_value(const std::vector<ledger::UtxoStore>& stores) {
  ledger::Amount total = 0;
  for (const auto& store : stores) total += store.total_value();
  return total;
}

}  // namespace

InvariantChecker::InvariantChecker(const protocol::Engine& engine)
    : engine_(engine),
      mirror_(engine.shard_state()),
      mirror_map_(*engine.shard_map()),
      prev_total_value_(total_value(engine.shard_state())),
      base_height_(engine.chain().height()) {
  prev_reputation_.reserve(engine.node_count());
  for (std::size_t id = 0; id < engine.node_count(); ++id) {
    prev_reputation_.push_back(
        engine.reputation(static_cast<net::NodeId>(id)));
  }
}

std::size_t InvariantChecker::check_round(const protocol::RoundReport& report) {
  const std::size_t before = violations_.size();
  const std::uint64_t round = report.round;

  if (report.invalid_committed != 0) {
    add("safety-invalid-committed", round,
        std::to_string(report.invalid_committed) +
            " ground-truth-invalid txs reached the block");
  }

  // Catch-up audit runs before the block replay below: a node that
  // resynced during this round was served the *pre-round* state, which
  // is exactly what mirror_ still holds here (last round's tip is this
  // block's prev_hash).
  if (!report.catchup_events.empty()) {
    check_catchup(report.catchup_events,
                  protocol::catchup_state_digest(
                      engine_.last_block().header.prev_hash, mirror_),
                  round, violations_);
  }

  check_chain(report);
  check_subblocks(engine_.released_subblocks(), engine_.last_block(), round,
                  violations_);
  check_block_txs(engine_.last_block(), engine_.params().m, committed_ids_,
                  spent_, mirror_, round, violations_);
  // On a rebalance boundary round the engine migrated its stores to the
  // successor map right after this round's block, so the mirror (still on
  // the old map) legitimately lags. The digest comparison is deferred to
  // check_epoch_boundary, which replays the recorded plan's migration on
  // the mirror first.
  const bool mirror_behind =
      engine_.shard_map() &&
      engine_.shard_map()->version() != mirror_map_.version();
  if (!mirror_behind) {
    check_state_digests(engine_.shard_state(), mirror_, round, violations_);
  }

  const ledger::Amount now_value = total_value(engine_.shard_state());
  if (now_value > prev_total_value_) {
    add("value-conservation", round,
        "total shard value grew from " + std::to_string(prev_total_value_) +
            " to " + std::to_string(now_value));
  }
  prev_total_value_ = now_value;

  check_flow(engine_.last_flow(), engine_.carryover_size(), round,
             violations_);
  if (engine_.last_flow().committed != report.txs_committed) {
    add("flow-conservation", round,
        "flow.committed " + std::to_string(engine_.last_flow().committed) +
            " != report.txs_committed " +
            std::to_string(report.txs_committed));
  }

  check_recovery(report);
  check_liveness(report);
  check_reputation(report);

  rounds_checked_ += 1;
  return violations_.size() - before;
}

void InvariantChecker::check_chain(const protocol::RoundReport& report) {
  const std::uint64_t round = report.round;
  const ledger::Chain& chain = engine_.chain();
  if (!chain.validate()) {
    add("chain-linkage", round, "header chain failed validation");
  }
  const std::size_t expected = base_height_ + rounds_checked_ + 1;
  if (chain.height() != expected) {
    add("chain-linkage", round,
        "chain height " + std::to_string(chain.height()) + ", expected " +
            std::to_string(expected));
  }
  const ledger::Block& block = engine_.last_block();
  if (!(block.header == chain.tip())) {
    add("block-body", round, "retained block is not the chain tip");
  }
  if (!block.body_matches()) {
    add("block-body", round, "block body does not match its header root");
  }
  if (block.header.tx_count != report.txs_committed) {
    add("block-body", round,
        "header tx_count " + std::to_string(block.header.tx_count) +
            " != report.txs_committed " +
            std::to_string(report.txs_committed));
  }
}

void InvariantChecker::check_block_txs(
    const ledger::Block& block, std::uint32_t m,
    std::set<std::string>& committed_ids,
    std::unordered_set<ledger::OutPoint, ledger::OutPointHash>& spent,
    std::vector<ledger::UtxoStore>& mirror, std::uint64_t round,
    std::vector<Violation>& out) {
  for (const auto& tx : block.txs) {
    const auto id = tx.id();
    if (!committed_ids.insert(tx_key(tx)).second) {
      out.push_back({"block-exactly-once", round,
                     "tx " + hex_prefix(id) + " committed twice"});
    }
    if (!ledger::check_tx_signature(tx)) {
      out.push_back({"tx-signature", round,
                     "tx " + hex_prefix(id) + " has an invalid signature"});
    }
    // Route through the epoch's account→shard map when the mirror carries
    // one (post-rebalance the static hash no longer matches the homes).
    const std::uint32_t shard =
        (!mirror.empty() && mirror.front().shard_map())
            ? ledger::input_shard(tx, *mirror.front().shard_map())
            : tx.input_shard(m);
    for (const auto& in : tx.inputs) {
      if (!spent.insert(in).second) {
        out.push_back({"double-spend", round,
                       "outpoint " + hex_prefix(in.tx) + ":" +
                           std::to_string(in.index) + " spent twice"});
      }
      if (shard < mirror.size() && !mirror[shard].contains(in)) {
        out.push_back({"spend-of-missing-output", round,
                       "tx " + hex_prefix(id) + " spends unknown outpoint " +
                           hex_prefix(in.tx) + ":" +
                           std::to_string(in.index)});
      }
    }
    for (auto& store : mirror) store.apply(tx);
  }
}

void InvariantChecker::check_subblocks(
    const std::vector<protocol::SubBlock>& subblocks,
    const ledger::Block& block, std::uint64_t round,
    std::vector<Violation>& out) {
  if (subblocks.empty()) return;
  std::set<std::string> in_block;
  std::unordered_set<ledger::OutPoint, ledger::OutPointHash> spent;
  for (const auto& tx : block.txs) {
    in_block.insert(tx_key(tx));
    spent.insert(tx.inputs.begin(), tx.inputs.end());
  }
  for (const auto& sub : subblocks) {
    for (const auto& tx : sub.txs) {
      if (in_block.contains(tx_key(tx))) continue;
      const bool lost_double_spend =
          std::any_of(tx.inputs.begin(), tx.inputs.end(),
                      [&](const ledger::OutPoint& in) {
                        return spent.contains(in);
                      });
      if (lost_double_spend) continue;
      out.push_back({"subblock-in-block", round,
                     "committee " + std::to_string(sub.committee) +
                         " sub-block tx " + hex_prefix(tx.id()) +
                         " is not in the block"});
    }
  }
}

void InvariantChecker::check_state_digests(
    const std::vector<ledger::UtxoStore>& state,
    const std::vector<ledger::UtxoStore>& mirror, std::uint64_t round,
    std::vector<Violation>& out) {
  if (state.size() != mirror.size()) {
    out.push_back({"utxo-mirror-digest", round,
                   "shard count mismatch: " + std::to_string(state.size()) +
                       " vs mirror " + std::to_string(mirror.size())});
    return;
  }
  for (std::size_t k = 0; k < state.size(); ++k) {
    if (state[k].digest() != state[k].full_digest()) {
      out.push_back({"utxo-incremental-digest", round,
                     "shard " + std::to_string(k) +
                         ": rolling digest != full recomputation"});
    }
    if (state[k].digest() != mirror[k].digest()) {
      out.push_back({"utxo-mirror-digest", round,
                     "shard " + std::to_string(k) +
                         ": engine view diverges from block replay (" +
                         std::to_string(state[k].size()) + " vs " +
                         std::to_string(mirror[k].size()) + " outputs)"});
    }
  }
}

void InvariantChecker::check_flow(const protocol::RoundFlow& flow,
                                  std::size_t carryover_size,
                                  std::uint64_t round,
                                  std::vector<Violation>& out) {
  if (flow.offered != flow.settled + flow.carried + flow.dropped) {
    out.push_back(
        {"flow-conservation", round,
         "offered " + std::to_string(flow.offered) + " != settled " +
             std::to_string(flow.settled) + " + carried " +
             std::to_string(flow.carried) + " + dropped " +
             std::to_string(flow.dropped)});
  }
  if (flow.foreign != 0) {
    out.push_back({"flow-conservation", round,
                   std::to_string(flow.foreign) +
                       " certified txs were never offered in any list"});
  }
  if (flow.committed > flow.settled) {
    out.push_back({"flow-conservation", round,
                   "committed " + std::to_string(flow.committed) +
                       " exceeds settled " + std::to_string(flow.settled)});
  }
  if (carryover_size != flow.carried) {
    out.push_back({"flow-conservation", round,
                   "carryover size " + std::to_string(carryover_size) +
                       " != carried " + std::to_string(flow.carried)});
  }
}

std::size_t InvariantChecker::check_epoch_boundary(
    const epoch::EpochHandoff& handoff) {
  const std::size_t before = violations_.size();
  check_handoff_state(handoff, engine_, violations_);
  check_handoff_membership(handoff, engine_.assignment(), engine_.params().m,
                           engine_.params().lambda,
                           engine_.params().referee_size, violations_);
  // Reputation conservation against the checker's own snapshot (taken at
  // the end of the epoch's last round): catches a reconfiguration that
  // mutates reputations even if the record agrees with the engine.
  const std::set<net::NodeId> fresh(handoff.joined.begin(),
                                    handoff.joined.end());
  double surviving = 0.0;
  for (net::NodeId id : handoff.members) {
    if (id < prev_reputation_.size() && !fresh.contains(id)) {
      surviving += prev_reputation_[id];
    }
  }
  if (std::abs(surviving - handoff.surviving_reputation) > 1e-6) {
    add("epoch-reputation-conservation", handoff.boundary_round,
        "handoff carries " + std::to_string(handoff.surviving_reputation) +
            " surviving reputation, pre-boundary snapshot sums to " +
            std::to_string(surviving));
  }
  const std::uint64_t round = handoff.boundary_round;
  check_committee_honesty(
      engine_.assignment(), handoff.members,
      [&](net::NodeId id) {
        // Out-of-universe ids in a tampered record were already flagged
        // by check_handoff_state; never index with them.
        return id < engine_.node_count() && engine_.misbehaved(id, round);
      },
      round, violations_);

  // --- Load-aware re-draw audit (src/epoch/rebalance.hpp). ---------------
  // The plan is recomputed from the checker's own pre-boundary map and the
  // engine's frozen load window, and its migration is replayed on the
  // checker's mirror stores — a forged or inconsistent record diverges
  // from one of those recomputations.
  if (engine_.params().rebalance && !handoff.plan) {
    add("epoch-rebalance-plan", round,
        "rebalance is enabled but the handoff records no plan");
  }
  if (handoff.plan) {
    const epoch::RebalancePlan& plan = *handoff.plan;
    if (plan.epoch != handoff.epoch) {
      add("epoch-rebalance-plan", round,
          "plan is stamped for epoch " + std::to_string(plan.epoch) +
              " inside the handoff for epoch " + std::to_string(handoff.epoch));
    }
    const auto& wl = engine_.workload();
    std::vector<std::pair<std::uint64_t, ledger::ShardId>> accounts;
    accounts.reserve(wl.config().users);
    for (std::uint32_t u = 0; u < wl.config().users; ++u) {
      const std::uint64_t key = wl.user_pk(u).y;
      accounts.emplace_back(key, mirror_map_.shard_key(key));
    }
    std::size_t corrupt = 0;
    for (net::NodeId id : handoff.members) {
      if (id < engine_.node_count() && engine_.misbehaved(id, round)) {
        corrupt += 1;
      }
    }
    check_rebalance_plan(plan, epoch::rebalance_config(engine_.params()),
                         mirror_map_, engine_.last_rebalance_window(),
                         accounts, handoff.members.size(), corrupt,
                         engine_.params().c, round, violations_);
    check_rebalance_migration(plan, mirror_, mirror_map_, round, violations_);
    // Deferred from check_round: with the mirror migrated onto the
    // successor map, engine state and block replay must agree again.
    check_state_digests(engine_.shard_state(), mirror_, round, violations_);
    if (engine_.shard_map()->digest() != plan.map_digest) {
      add("epoch-rebalance-mapping", round,
          "engine installed a shard map that differs from the plan's "
          "map_digest");
    }
    // The workload's cached per-user assignment must agree with the
    // installed map — a generator still routing off a stale cache would
    // silently undo the re-draw.
    std::size_t stale = 0;
    for (std::uint32_t u = 0; u < wl.config().users; ++u) {
      if (wl.cached_shard_of_user(u) !=
          engine_.shard_map()->shard(wl.user_pk(u))) {
        stale += 1;
      }
    }
    if (stale != 0) {
      add("epoch-rebalance-mapping", round,
          std::to_string(stale) +
              " workload users cache a shard assignment that diverges "
              "from the installed map");
    }
  }
  return violations_.size() - before;
}

void InvariantChecker::check_rebalance_plan(
    const epoch::RebalancePlan& plan, const epoch::RebalanceConfig& cfg,
    const ledger::ShardMap& pre_map, const ledger::ShardLoadWindow& window,
    const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
    std::size_t member_count, std::size_t corrupt_members,
    std::uint32_t committee_size, std::uint64_t round,
    std::vector<Violation>& out) {
  if (plan.m_before != pre_map.shards()) {
    out.push_back({"epoch-rebalance-mapping", round,
                   "plan claims m_before=" + std::to_string(plan.m_before) +
                       " against a map of " +
                       std::to_string(pre_map.shards()) + " shards"});
  }
  for (const auto& mv : plan.moves) {
    if (mv.to >= pre_map.shards()) {
      out.push_back({"epoch-rebalance-mapping", round,
                     "move of account " + std::to_string(mv.account) +
                         " targets out-of-range shard " +
                         std::to_string(mv.to)});
    }
    if (mv.from != pre_map.shard_key(mv.account)) {
      out.push_back({"epoch-rebalance-mapping", round,
                     "move claims account " + std::to_string(mv.account) +
                         " lives on shard " + std::to_string(mv.from) +
                         ", pre-boundary map homes it on shard " +
                         std::to_string(pre_map.shard_key(mv.account))});
    }
  }
  if (plan.moves.size() > cfg.max_moves) {
    out.push_back({"epoch-rebalance-plan", round,
                   "plan carries " + std::to_string(plan.moves.size()) +
                       " moves, cap is " + std::to_string(cfg.max_moves)});
  }
  // Determinism: the planner is a pure function of the window, roster and
  // membership — the record must equal its recomputation bit for bit.
  const epoch::RebalancePlan expect = epoch::plan_rebalance(
      cfg, pre_map, window, accounts, member_count, corrupt_members,
      committee_size, plan.epoch);
  if (plan.moves != expect.moves || plan.m_after != expect.m_after ||
      plan.fair_draw_tail != expect.fair_draw_tail ||
      plan.map_digest != expect.map_digest) {
    out.push_back({"epoch-rebalance-plan", round,
                   "recorded plan differs from its deterministic "
                   "recomputation (" +
                       std::to_string(plan.moves.size()) + " vs " +
                       std::to_string(expect.moves.size()) + " moves, m " +
                       std::to_string(plan.m_after) + " vs " +
                       std::to_string(expect.m_after) + ")"});
  }
  // Fair-draw safety of a split/merge recommendation: within budget and
  // under the rigged-draw threshold at the rescaled committee size.
  const std::uint32_t delta = plan.m_after > plan.m_before
                                  ? plan.m_after - plan.m_before
                                  : plan.m_before - plan.m_after;
  if (delta > cfg.split_merge_budget) {
    out.push_back({"epoch-rebalance-fair-draw", round,
                   "split/merge from m=" + std::to_string(plan.m_before) +
                       " to m=" + std::to_string(plan.m_after) +
                       " exceeds the budget of " +
                       std::to_string(cfg.split_merge_budget)});
  }
  if (plan.m_after != plan.m_before &&
      plan.fair_draw_tail > epoch::kMaxFairDrawTail) {
    out.push_back({"epoch-rebalance-fair-draw", round,
                   "recommended re-draw carries fair-draw failure tail " +
                       std::to_string(plan.fair_draw_tail) +
                       ", above the safety threshold " +
                       std::to_string(epoch::kMaxFairDrawTail)});
  }
}

void InvariantChecker::check_rebalance_migration(
    const epoch::RebalancePlan& plan, std::vector<ledger::UtxoStore>& mirror,
    ledger::ShardMap& mirror_map, std::uint64_t round,
    std::vector<Violation>& out) {
  ledger::Amount before = 0;
  for (const auto& store : mirror) before += store.total_value();
  std::shared_ptr<const ledger::ShardMap> next;
  try {
    next = std::make_shared<const ledger::ShardMap>(
        mirror_map.apply(plan.moves));
  } catch (const std::exception& e) {
    out.push_back({"epoch-rebalance-mapping", round,
                   std::string("plan moves do not apply to the mirror "
                               "map: ") +
                       e.what()});
    return;
  }
  if (next->digest() != plan.map_digest) {
    out.push_back({"epoch-rebalance-mapping", round,
                   "successor map replayed from the plan's moves does not "
                   "digest to the plan's map_digest"});
  }
  const std::uint64_t migrated =
      ledger::migrate_stores(mirror, mirror_map, next, plan.moves);
  if (migrated != plan.migrated_outputs) {
    out.push_back({"epoch-rebalance-tx-preservation", round,
                   "migration replay moved " + std::to_string(migrated) +
                       " outputs, plan records " +
                       std::to_string(plan.migrated_outputs)});
  }
  ledger::Amount after = 0;
  for (const auto& store : mirror) after += store.total_value();
  if (after != before) {
    out.push_back({"epoch-rebalance-tx-preservation", round,
                   "migration changed total mirror value from " +
                       std::to_string(before) + " to " +
                       std::to_string(after)});
  }
  // Stranded-entry scan: every surviving output must live on the shard
  // the successor map homes its owner on.
  for (const auto& store : mirror) {
    for (const ledger::OutPoint& op : store.outpoints()) {
      const auto entry = store.get(op);
      if (entry && next->shard_key(entry->owner.y) != store.shard()) {
        out.push_back({"epoch-rebalance-tx-preservation", round,
                       "output " + hex_prefix(op.tx) + ":" +
                           std::to_string(op.index) +
                           " is stranded on shard " +
                           std::to_string(store.shard()) +
                           ", its owner now homes on shard " +
                           std::to_string(next->shard_key(entry->owner.y))});
      }
    }
  }
  mirror_map = *next;
}

void InvariantChecker::check_handoff_state(const epoch::EpochHandoff& handoff,
                                           const protocol::Engine& engine,
                                           std::vector<Violation>& out) {
  const std::uint64_t round = handoff.boundary_round;
  if (handoff.boundary_round != engine.round()) {
    out.push_back({"epoch-handoff-continuity", round,
                   "handoff boundary round " +
                       std::to_string(handoff.boundary_round) +
                       " != engine round " + std::to_string(engine.round())});
  }
  if (handoff.chain_tip != engine.chain().tip().hash() ||
      handoff.chain_height != engine.chain().height()) {
    out.push_back({"epoch-handoff-continuity", round,
                   "handoff chain head (height " +
                       std::to_string(handoff.chain_height) +
                       ") does not match the carried chain (height " +
                       std::to_string(engine.chain().height()) + ")"});
  }
  if (handoff.randomness != engine.randomness()) {
    out.push_back({"epoch-handoff-continuity", round,
                   "handoff randomness differs from the installed epoch "
                   "randomness"});
  }
  const auto& state = engine.shard_state();
  if (handoff.shard_digests.size() != state.size()) {
    out.push_back({"epoch-handoff-continuity", round,
                   "handoff carries " +
                       std::to_string(handoff.shard_digests.size()) +
                       " shard digests for " + std::to_string(state.size()) +
                       " shards"});
  } else {
    for (std::size_t k = 0; k < state.size(); ++k) {
      if (handoff.shard_digests[k] != state[k].digest()) {
        out.push_back({"epoch-handoff-continuity", round,
                       "shard " + std::to_string(k) +
                           " digest in the handoff differs from the "
                           "authoritative view"});
      }
    }
  }
  if (handoff.carried_txs != engine.carryover().size() ||
      handoff.carried_digest != epoch::carryover_digest(engine.carryover())) {
    out.push_back({"epoch-tx-preservation", round,
                   "handoff claims " + std::to_string(handoff.carried_txs) +
                       " carried txs, Remaining TX List holds " +
                       std::to_string(engine.carryover().size()) +
                       " (or content digest differs)"});
  }
  const std::set<net::NodeId> fresh(handoff.joined.begin(),
                                    handoff.joined.end());
  double surviving = 0.0;
  for (net::NodeId id : handoff.members) {
    // The record is untrusted input (deserialized, possibly tampered):
    // an id outside the engine's universe is itself a violation, never
    // an index.
    if (id >= engine.node_count()) {
      out.push_back({"epoch-membership", round,
                     "handoff member " + std::to_string(id) +
                         " is outside the node universe (" +
                         std::to_string(engine.node_count()) + ")"});
      continue;
    }
    if (!fresh.contains(id)) surviving += engine.reputation(id);
  }
  if (std::abs(surviving - handoff.surviving_reputation) > 1e-6) {
    out.push_back({"epoch-reputation-conservation", round,
                   "handoff carries " +
                       std::to_string(handoff.surviving_reputation) +
                       " surviving reputation, engine holds " +
                       std::to_string(surviving)});
  }
}

void InvariantChecker::check_handoff_membership(
    const epoch::EpochHandoff& handoff,
    const protocol::RoundAssignment& assign, std::uint32_t m,
    std::uint32_t lambda, std::uint32_t referee_size,
    std::vector<Violation>& out) {
  const std::uint64_t round = handoff.boundary_round;
  const std::set<net::NodeId> members(handoff.members.begin(),
                                      handoff.members.end());
  if (members.size() != handoff.members.size()) {
    out.push_back({"epoch-membership", round,
                   "handoff membership list repeats node ids"});
  }
  for (net::NodeId id : handoff.joined) {
    if (!members.contains(id)) {
      out.push_back({"epoch-membership", round,
                     "joined node " + std::to_string(id) +
                         " is not in the recorded membership"});
    }
  }
  for (net::NodeId id : handoff.retired) {
    if (members.contains(id)) {
      out.push_back({"epoch-membership", round,
                     "retired node " + std::to_string(id) +
                         " is still in the recorded membership"});
    }
  }

  std::set<net::NodeId> seen;
  std::size_t assigned = 0;
  auto check_role = [&](net::NodeId id, const char* role) {
    assigned += 1;
    if (!members.contains(id)) {
      out.push_back({"epoch-membership", round,
                     std::string(role) + " " + std::to_string(id) +
                         " is not a recorded member"});
    }
    if (!seen.insert(id).second) {
      out.push_back({"epoch-membership", round,
                     "node " + std::to_string(id) +
                         " holds more than one role"});
    }
  };
  for (net::NodeId id : assign.referees) check_role(id, "referee");
  for (const auto& committee : assign.committees) {
    check_role(committee.leader, "leader");
    for (net::NodeId id : committee.partial) check_role(id, "partial member");
    for (net::NodeId id : committee.commons) check_role(id, "common member");
    if (committee.partial.size() != lambda) {
      out.push_back({"epoch-membership", round,
                     "committee " + std::to_string(committee.id) +
                         " partial set has " +
                         std::to_string(committee.partial.size()) +
                         " members, expected " + std::to_string(lambda)});
    }
  }
  if (assign.referees.size() != referee_size) {
    out.push_back({"epoch-membership", round,
                   "referee committee has " +
                       std::to_string(assign.referees.size()) +
                       " members, expected " + std::to_string(referee_size)});
  }
  if (assign.committees.size() != m) {
    out.push_back({"epoch-membership", round,
                   std::to_string(assign.committees.size()) +
                       " committees drawn, expected " + std::to_string(m)});
  }
  if (assigned != members.size()) {
    out.push_back({"epoch-membership", round,
                   std::to_string(assigned) + " role seats filled for " +
                       std::to_string(members.size()) + " members"});
  }
}

void InvariantChecker::check_committee_honesty(
    const protocol::RoundAssignment& assign,
    const std::vector<net::NodeId>& members,
    const std::function<bool(net::NodeId)>& corrupt, std::uint64_t round,
    std::vector<Violation>& out) {
  std::size_t corrupt_members = 0;
  for (net::NodeId id : members) {
    if (corrupt(id)) corrupt_members += 1;
  }
  // Outside the threat model (>= 1/3 corrupt overall) no per-committee
  // guarantee exists; scenarios probing failure are not flagged here.
  if (corrupt_members * 3 >= members.size()) return;

  // The paper's committee security is probabilistic: a fair draw loses a
  // committee's honest majority with the exact hypergeometric tail
  // probability of Eq. 3, which is non-negligible for the small
  // committees the harness runs. Flag a corrupt-majority group only when
  // that tail is statistically impossible for the population actually
  // drawn from — then the draw was rigged, not unlucky — so legitimate
  // executions stay deterministically green.
  auto audit = [&](const std::vector<net::NodeId>& group, std::string who) {
    std::size_t bad = 0;
    for (net::NodeId id : group) {
      if (corrupt(id)) bad += 1;
    }
    if (group.empty() || bad * 2 < group.size()) return;
    const double fair_draw_tail = analysis::committee_failure_exact(
        members.size(), corrupt_members, group.size());
    if (fair_draw_tail < epoch::kMaxFairDrawTail) {
      out.push_back({"epoch-committee-honest-majority", round,
                     std::move(who) + " lost its honest majority (" +
                         std::to_string(bad) + "/" +
                         std::to_string(group.size()) +
                         " corrupt; fair-draw probability " +
                         std::to_string(fair_draw_tail) + ")"});
    }
  };
  audit(assign.referees, "referee committee");
  for (const auto& committee : assign.committees) {
    audit(committee.all_members(),
          "committee " + std::to_string(committee.id));
  }
}

void InvariantChecker::check_recovery(const protocol::RoundReport& report) {
  const std::uint64_t round = report.round;
  const auto& log = engine_.recovery_log();
  std::size_t committee_sum = 0;
  for (const auto& stats : report.committees) {
    committee_sum += stats.recoveries;
    if (stats.recoveries > protocol::kMaxRecoveriesPerCommittee) {
      add("recovery-bounds", round,
          "committee " + std::to_string(stats.committee) + " recovered " +
              std::to_string(stats.recoveries) + " times (cap " +
              std::to_string(protocol::kMaxRecoveriesPerCommittee) + ")");
    }
  }
  // (report.recoveries itself is assigned from the log's size, so the
  // cross-check that can actually fail is per-committee counts vs log.)
  if (committee_sum != log.size()) {
    add("recovery-bounds", round,
        "per-committee recoveries sum to " + std::to_string(committee_sum) +
            ", recovery log has " + std::to_string(log.size()));
  }

  const auto& assignment = engine_.last_assignment();
  for (const auto& event : log) {
    if (event.round != round) {
      add("recovery-bounds", round,
          "recovery event carries round " + std::to_string(event.round));
    }
    // An unreachable-but-honest leader (blackout, partition island) is
    // legitimately replaced — the committee cannot tell silence from a
    // crash, and the paper's timeout machinery must fire either way.
    if (!engine_.misbehaved(event.old_leader, round) &&
        !engine_.impaired(event.old_leader, round)) {
      add("honest-leader-evicted", round,
          "honest node " + std::to_string(event.old_leader) +
              " was evicted from committee " +
              std::to_string(event.committee));
    }
    if (event.committee < assignment.committees.size()) {
      const auto& partial = assignment.committees[event.committee].partial;
      if (std::find(partial.begin(), partial.end(), event.new_leader) ==
          partial.end()) {
        add("recovery-replacement", round,
            "replacement " + std::to_string(event.new_leader) +
                " is not in committee " + std::to_string(event.committee) +
                "'s partial set");
      }
    }
  }
  for (net::NodeId id : engine_.convicted_leaders()) {
    if (!engine_.misbehaved(id, round) && !engine_.impaired(id, round)) {
      add("honest-leader-convicted", round,
          "honest node " + std::to_string(id) + " was convicted");
    }
  }
}

void InvariantChecker::check_partition_round(
    const protocol::CommitteeRoundStats& stats, bool severed_last_round,
    bool eligible, std::uint64_t round, std::vector<Violation>& out) {
  if (stats.severed && stats.produced_output) {
    out.push_back({"partition-no-straddle", round,
                   "committee " + std::to_string(stats.committee) +
                       " certified output while severed below referee "
                       "quorum"});
  }
  if (!stats.severed && severed_last_round && eligible &&
      !stats.produced_output) {
    out.push_back({"partition-liveness-resume", round,
                   "committee " + std::to_string(stats.committee) +
                       " healed from a partition but produced no certified "
                       "output on its first healthy round"});
  }
}

void InvariantChecker::check_catchup(
    const std::vector<protocol::CatchUpRecord>& events,
    const crypto::Digest& expected, std::uint64_t round,
    std::vector<Violation>& out) {
  for (const auto& ev : events) {
    if (!ev.success) continue;
    if (ev.adopted_digest != expected) {
      out.push_back({"restart-replay-digest", round,
                     "node " + std::to_string(ev.node) +
                         " adopted a catch-up digest (confirmed by " +
                         std::to_string(ev.confirms) +
                         " referees) that differs from the honest block-"
                         "replay digest"});
    }
  }
}

void InvariantChecker::check_liveness(const protocol::RoundReport& report) {
  const std::uint64_t round = report.round;
  const auto& assignment = engine_.last_assignment();
  const auto& options = engine_.options();
  // Probabilistic wide-area loss makes any single round's output
  // best-effort: an intra result that never reaches a referee quorum is
  // correct degradation, not a liveness bug. Safety checks stay armed.
  const bool lossy = engine_.params().faults.drop > 0.0;
  // The recovery path runs through C_R (impeachment prosecution and the
  // re-selection consensus, Alg. 6): without an honest-active majority
  // of referees a faulty-leader committee legitimately cannot recover,
  // so the recoverable half of commit-or-recover is armed only when C_R
  // itself is inside the threat model.
  std::size_t honest_referees = 0;
  for (net::NodeId id : assignment.referees) {
    if (!engine_.misbehaved(id, round) && engine_.active(id, round) &&
        !engine_.impaired(id, round)) {
      honest_referees += 1;
    }
  }
  const bool referees_ok = honest_referees * 2 > assignment.referees.size();
  if (severed_prev_.size() < report.committees.size()) {
    severed_prev_.resize(report.committees.size(), false);
  }
  for (const auto& stats : report.committees) {
    if (stats.committee >= assignment.committees.size()) continue;
    const bool was_severed = stats.committee < severed_prev_.size() &&
                             severed_prev_[stats.committee];
    if (stats.committee < severed_prev_.size()) {
      severed_prev_[stats.committee] = stats.severed;
    }
    const auto& info = assignment.committees[stats.committee];
    const auto members = info.all_members();
    // Impaired (blacked-out / islanded) members cannot contribute to a
    // quorum this round, so they count as inactive for liveness demands.
    auto contributes = [&](net::NodeId id) {
      return !engine_.misbehaved(id, round) && engine_.active(id, round) &&
             !engine_.impaired(id, round);
    };
    std::size_t honest_active = 0;
    for (net::NodeId id : members) {
      if (contributes(id)) honest_active += 1;
    }
    const bool honest_majority = honest_active * 2 > members.size();

    const bool leader_ok = contributes(info.leader);
    bool recoverable = false;
    if (options.recovery_enabled && referees_ok &&
        stats.recoveries < protocol::kMaxRecoveriesPerCommittee) {
      for (net::NodeId id : info.partial) {
        if (contributes(id)) {
          recoverable = true;
          break;
        }
      }
    }
    const bool eligible =
        !lossy && honest_majority && (leader_ok || recoverable);
    check_partition_round(stats, was_severed, eligible, round, violations_);
    // A committee severed this round (or re-forming right after a heal)
    // is exempt from the ordinary liveness demand; so is every committee
    // when the wide-area links drop messages.
    if (stats.severed || was_severed || lossy) continue;
    if (!honest_majority) continue;  // adversarial majority
    if ((leader_ok || recoverable) && !stats.produced_output) {
      add("commit-or-recover", round,
          "honest-majority committee " + std::to_string(stats.committee) +
              " (leader " + (leader_ok ? "honest" : "faulty, recoverable") +
              ") produced no certified output");
    }
  }
}

void InvariantChecker::check_reputation(const protocol::RoundReport& report) {
  const std::uint64_t round = report.round;
  // A vote score is a cosine in [-1, 1], so an honest node can lose at
  // most 1 reputation per round; the cube-root conviction punishment
  // (§VII-B) produces much larger drops at leader reputation levels.
  // Honest nodes must never take such a cliff.
  constexpr double kMaxHonestDrop = 1.0 + 1e-9;
  for (std::size_t i = 0; i < engine_.node_count(); ++i) {
    const auto id = static_cast<net::NodeId>(i);
    const double now = engine_.reputation(id);
    // An impaired (blacked-out / islanded) node is indistinguishable
    // from a crashed one, so a conviction-sized punishment on it is
    // correct protocol behaviour, not a cliff on an honest node.
    if (!engine_.misbehaved(id, round) && !engine_.impaired(id, round)) {
      const double delta = now - prev_reputation_[i];
      if (delta < -kMaxHonestDrop) {
        add("honest-reputation-cliff", round,
            "honest node " + std::to_string(id) + " lost " +
                std::to_string(-delta) + " reputation in one round");
      }
    }
    prev_reputation_[i] = now;
  }
}

}  // namespace cyc::harness
