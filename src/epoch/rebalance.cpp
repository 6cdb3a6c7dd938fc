#include "epoch/rebalance.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace cyc::epoch {

crypto::Digest RebalancePlan::digest() const {
  return crypto::sha256(serialize());
}

RebalancePlan plan_rebalance(
    const protocol::Params& params, const ledger::ShardMap& current,
    const ledger::ShardLoadWindow& window,
    const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
    std::uint64_t entering_epoch) {
  const std::uint32_t m = current.shards();
  RebalancePlan plan;
  plan.epoch = entering_epoch;

  // No observed load — nothing to act on; record the identity decision.
  if (!params.rebalance || window.empty() || window.offered.size() != m) {
    plan.map_digest = current.apply({}).digest();
    return plan;
  }

  // Working copies: per-shard load estimate and account census.
  std::vector<double> load(m, 0.0);
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < m; ++k) {
    load[k] = static_cast<double>(window.offered[k]);
    total += window.offered[k];
  }
  const double mean = static_cast<double>(total) / m;
  std::vector<std::size_t> census(m, 0);
  std::map<std::uint64_t, ledger::ShardId> account_shard;
  for (const auto& [account, shard] : accounts) {
    census[shard] += 1;
    account_shard[account] = shard;
  }

  // Greedy re-homing: while a shard is over threshold, move its hottest
  // account (most window arrivals, ties to the lowest key) to the
  // currently coldest shard, updating the load estimates as we go.
  // Everything iterates sorted containers, so the plan is deterministic.
  std::set<std::uint64_t> moved;
  for (std::uint32_t iter = 0; iter < params.rebalance_moves; ++iter) {
    std::uint32_t hot = 0, cold = 0;
    for (std::uint32_t k = 1; k < m; ++k) {
      if (load[k] > load[hot]) hot = k;
      if (load[k] < load[cold]) cold = k;
    }
    if (hot == cold || load[hot] <= kOverloadThreshold * mean) break;
    if (census[hot] <= 1) break;  // never empty a shard of accounts

    std::uint64_t best_account = 0;
    std::uint64_t best_arrivals = 0;
    bool found = false;
    for (const auto& [account, count] : window.account_arrivals) {
      if (count == 0 || moved.contains(account)) continue;
      auto it = account_shard.find(account);
      if (it == account_shard.end() || it->second != hot) continue;
      if (!found || count > best_arrivals) {
        best_account = account;
        best_arrivals = count;
        found = true;
      }
    }
    if (!found) break;

    plan.moves.push_back(ledger::AccountMove{best_account, hot, cold});
    moved.insert(best_account);
    account_shard[best_account] = cold;
    census[hot] -= 1;
    census[cold] += 1;
    load[hot] -= static_cast<double>(best_arrivals);
    load[cold] += static_cast<double>(best_arrivals);
  }
  std::sort(plan.moves.begin(), plan.moves.end(),
            [](const ledger::AccountMove& a, const ledger::AccountMove& b) {
              return a.account < b.account;
            });

  plan.map_digest = current.apply(plan.moves).digest();
  return plan;
}

}  // namespace cyc::epoch
