#include "epoch/handoff.hpp"

#include <algorithm>
#include <set>

#include "support/serde.hpp"

namespace cyc::epoch {

Bytes EpochHandoff::serialize() const {
  Writer w;
  write_field(w, *this);
  if (plan) {
    w.u8(1);
    w.bytes(plan->serialize());
  }
  return w.take();
}

EpochHandoff EpochHandoff::deserialize(BytesView b) {
  Reader r(b);
  EpochHandoff h;
  read_field(r, h);
  if (r.remaining() > 0) {
    if (r.u8() != 1) throw std::invalid_argument("EpochHandoff: bad plan tag");
    h.plan = RebalancePlan::deserialize(r.view());
  }
  return h;
}

crypto::Digest EpochHandoff::digest() const { return crypto::sha256(serialize()); }

crypto::Digest carryover_digest(const std::vector<ledger::Transaction>& txs) {
  crypto::Sha256 ctx;
  ctx.update("cyc.epoch.carryover");
  ctx.update_u64(txs.size());
  for (const auto& tx : txs) {
    const ledger::TxId id = tx.id();
    ctx.update(BytesView(id.data(), id.size()));
  }
  return ctx.finalize();
}

EpochHandoff build_handoff(const protocol::Engine& engine,
                           std::uint64_t epoch,
                           std::vector<net::NodeId> joined,
                           std::vector<net::NodeId> retired,
                           std::uint64_t join_candidates,
                           std::uint64_t beacon_disqualified) {
  EpochHandoff h;
  h.epoch = epoch;
  h.boundary_round = engine.round();
  h.randomness = engine.randomness();
  h.chain_tip = engine.chain().tip().hash();
  h.chain_height = engine.chain().height();
  for (const auto& store : engine.shard_state()) {
    h.shard_digests.push_back(store.digest());
  }
  h.carried_txs = engine.carryover().size();
  h.carried_digest = carryover_digest(engine.carryover());
  h.members = engine.members();
  std::sort(joined.begin(), joined.end());
  std::sort(retired.begin(), retired.end());
  h.joined = std::move(joined);
  h.retired = std::move(retired);
  h.join_candidates = join_candidates;
  h.beacon_disqualified = beacon_disqualified;
  const std::set<net::NodeId> fresh(h.joined.begin(), h.joined.end());
  for (net::NodeId id : h.members) {
    if (!fresh.contains(id)) h.surviving_reputation += engine.reputation(id);
  }
  return h;
}

}  // namespace cyc::epoch
