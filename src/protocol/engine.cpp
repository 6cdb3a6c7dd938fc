// Engine part 1: construction, the observer seam, role assignment,
// round scheduling, finalization and selection. Phase drivers and the
// Alg. 2 / Alg. 3 handlers live in engine_msgs.cpp; leader duties,
// semi-commitment, voting, cross-shard flows, crash catch-up, reputation
// and the recovery procedure (Alg. 6) in engine_msgs2.cpp.
#include "protocol/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "crypto/pow.hpp"
#include "crypto/pvss.hpp"
#include "crypto/schnorr.hpp"
#include "protocol/payloads.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {

Engine::Engine(Params params, AdversaryConfig adversary, EngineOptions options)
    : params_(params),
      adversary_(adversary),
      options_(options),
      rng_(rng::Stream(params.seed).fork("engine")) {
  randomness_ = crypto::sha256_concat({bytes_of("cyc.genesis.rand"),
                                       be64(params_.seed)});
  build_nodes();

  net_ = std::make_unique<net::SimNet>(nodes_.size(), params_.delays,
                                       rng_.fork("net"));
  // Always install the injector: a structurally inert plan consumes no
  // randomness and leaves delivery byte-identical, and having it in place
  // lets the harness add partitions / blackouts mid-run.
  net_->install_faults({{}, {}, params_.faults}, rng_.fork("faults"));
  for (auto& n : nodes_) {
    const net::NodeId id = n.id;
    net_->set_handler(id, [this, id](const net::Message& msg, net::Time now) {
      dispatch(nodes_[id], msg, now);
    });
  }

  ledger::WorkloadConfig wl;
  wl.shards = params_.m;
  wl.users = params_.users ? params_.users : 16 * params_.m;
  wl.cross_shard_fraction = params_.cross_shard_fraction;
  wl.invalid_fraction = params_.invalid_fraction;
  // The epoch's account→shard map, without overrides until a rebalance
  // installs some; the generator and every store share it.
  shard_map_ = std::make_shared<const ledger::ShardMap>(params_.m);
  workload_ = std::make_unique<ledger::WorkloadGenerator>(
      wl, rng_.fork("workload").seed(), shard_map_);
  shard_state_ = workload_->genesis();

  if (open_loop()) {
    if (params_.mempool_cap == 0) {
      // A zero-capacity mempool is always full(): every open-loop
      // arrival would be silently dropped, which reads as a healthy
      // zero-throughput system in every report. Reject loudly instead.
      throw std::invalid_argument(
          "engine: mempool_cap must be > 0 when arrival_rate > 0 "
          "(a zero-capacity mempool drops every arrival)");
    }
    // Sustained-traffic mode: arrivals come from a dedicated stream (the
    // closed-loop path never touches it, and forking is a pure function
    // of (seed, name), so a zero rate stays byte-identical).
    ledger::OpenLoopConfig ol;
    ol.arrival_rate = params_.arrival_rate;
    ol.zipf_s = params_.zipf_s;
    ol.cross_shard_fraction = params_.cross_shard_fraction;
    ol.invalid_fraction = params_.invalid_fraction;
    openloop_ = std::make_unique<ledger::OpenLoopSource>(
        ol, *workload_, rng_.fork("openloop").seed());
    mempools_.assign(params_.m,
                     ledger::ShardMempool(params_.mempool_cap));
  }

  assign_genesis_roles();
  link_classifier_install();
}

Engine::~Engine() = default;

void Engine::attach_observer(obs::Observer* observer) {
  if (observer == nullptr) {
    obs_.reset();
  } else {
    obs_.emplace(*observer, params_.m, open_loop());
  }
}

void Engine::enter_phase(net::Phase phase, net::Time at) {
  net_->set_phase(phase);
  if (obs_) obs_->phase(phase, at, net_->stats());
}

void Engine::build_nodes() {
  // The universe is the active seats plus the standby pool; standby
  // identities exist (keys, capacity, possibly a genesis corruption) but
  // are not enrolled until an epoch boundary admits them.
  const std::uint32_t n = params_.universe();
  nodes_.resize(n);
  rng::Stream keys_rng = rng_.fork("keys");
  rng::Stream cap_rng = rng_.fork("capacity");
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeState& node = nodes_[i];
    node.id = i;
    node.enrolled = i < params_.total_nodes();
    rng::Stream kr = keys_rng.fork(i);
    node.keys = crypto::KeyPair::generate(kr);
    node.capacity = static_cast<std::uint32_t>(cap_rng.range(
        params_.capacity_min, params_.capacity_max));
    pk_index_[node.keys.pk.y] = i;
  }
  // Genesis corruption: < corrupt_fraction of all nodes, active from the
  // first round (corrupted_at = 0 < round 1).
  rng::Stream adv_rng = rng_.fork("adversary");
  const auto target = static_cast<std::size_t>(
      adversary_.corrupt_fraction * static_cast<double>(n));
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  rng::shuffle(order, adv_rng);
  for (std::size_t i = 0; i < target && i < order.size(); ++i) {
    NodeState& node = nodes_[order[i]];
    node.behavior = adversary_.sample(adv_rng);
    node.corrupted_at = 0;
  }
}

void Engine::assign_genesis_roles() {
  assign_ = RoundAssignment{};
  assign_.round = 1;
  // Only the enrolled membership takes part; standby identities wait for
  // an epoch boundary.
  std::vector<net::NodeId> order = members();
  rng::Stream role_rng = rng_.fork("genesis-roles");
  rng::shuffle(order, role_rng);

  std::size_t next = 0;
  assign_.referees.assign(order.begin(),
                          order.begin() + params_.referee_size);
  next = params_.referee_size;
  assign_.committees.resize(params_.m);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    CommitteeInfo& committee = assign_.committees[k];
    committee.id = k;
    committee.leader = order[next++];
    for (std::uint32_t j = 0; j < params_.lambda; ++j) {
      committee.partial.push_back(order[next++]);
    }
  }
  // Remaining nodes land in committees by cryptographic sortition
  // (Alg. 1), exactly as they will in later rounds, so their membership
  // proofs verify during committee configuration.
  for (; next < order.size(); ++next) {
    NodeState& n = nodes_[order[next]];
    n.ticket = crypto_sort(n.keys, 1, randomness_, params_.m);
    assign_.committees[n.ticket.committee].commons.push_back(n.id);
  }

  // Optional forced corruption of round-1 leaders (Table I row 6 sweeps).
  // When the adversary mix names a single behaviour, forced leaders use
  // it; otherwise the four leader misbehaviours are assigned cyclically.
  if (adversary_.forced_corrupt_leader_fraction >= 0.0) {
    const auto bad = static_cast<std::size_t>(std::llround(
        adversary_.forced_corrupt_leader_fraction *
        static_cast<double>(params_.m)));
    static constexpr Behavior kLeaderBehaviors[] = {
        Behavior::kEquivocator, Behavior::kCommitForger, Behavior::kCrash,
        Behavior::kConcealer};
    std::optional<Behavior> pinned;
    {
      const Behavior* only = nullptr;
      int positive = 0;
      for (const auto& w : adversary_.mix) {
        if (w.weight > 0.0) {
          ++positive;
          only = &w.behavior;
        }
      }
      if (positive == 1) pinned = *only;
    }
    for (std::size_t k = 0; k < bad && k < assign_.committees.size(); ++k) {
      NodeState& leader = nodes_[assign_.committees[k].leader];
      leader.behavior = pinned ? *pinned : kLeaderBehaviors[k % 4];
      leader.corrupted_at = 0;
    }
  }
}

void Engine::link_classifier_install() {
  net_->set_link_classifier([this](net::NodeId a, net::NodeId b) {
    const Role ra = nodes_[a].role;
    const Role rb = nodes_[b].role;
    const bool key_a = ra != Role::kCommon;
    const bool key_b = rb != Role::kCommon;
    if (nodes_[a].committee >= 0 && nodes_[a].committee == nodes_[b].committee) {
      return net::LinkClass::kIntraCommittee;
    }
    if (key_a && key_b) return net::LinkClass::kKeyMesh;
    return net::LinkClass::kPartialSync;
  });
}

std::vector<net::NodeId> Engine::committee_members(std::uint32_t k) const {
  // Recovery may have replaced the leader; membership is unchanged.
  return assign_.committees[k].all_members();
}

net::NodeId Engine::node_of_pk(const crypto::PublicKey& pk) const {
  auto it = pk_index_.find(pk.y);
  return it == pk_index_.end() ? net::kNoNode : it->second;
}

net::NodeId Engine::designated_referee(std::uint64_t sn) const {
  // The referee designated to drive instance `sn`: the hash seat, or —
  // when that seat is silent this round — the next active seat in
  // rotation order. C_R's consensus tolerates < 1/3 faulty referees via
  // view change; this is the deterministic stand-in (every node
  // evaluates the same rotation), so one crashed referee cannot stall
  // conviction, re-selection or block release for a whole round.
  // A seat the fault schedule has silenced (blackout) or cut off from the
  // referee majority (partition) is skipped exactly like a crashed one:
  // every node evaluates the same plan, so the rotation stays agreed.
  const std::size_t size = assign_.referees.size();
  for (std::size_t step = 0; step < size; ++step) {
    const net::NodeId id = assign_.referees[(sn + step) % size];
    if (nodes_[id].is_active(round_) && referee_reachable(id)) return id;
  }
  return assign_.referees[sn % size];  // all silent: threat-model breach
}

bool Engine::referee_seat(net::NodeId id) const {
  return std::find(assign_.referees.begin(), assign_.referees.end(), id) !=
         assign_.referees.end();
}

bool Engine::released_subblock(net::NodeId leader) const {
  return std::any_of(released_subblocks_.begin(), released_subblocks_.end(),
                     [&](const SubBlock& sb) { return sb.leader == leader; });
}

void Engine::send_to_referees(net::NodeId from, net::Tag tag,
                              const net::PayloadPtr& payload) {
  for (net::NodeId rm : assign_.referees) {
    net_->send_shared(from, rm, tag, payload);
  }
}

void Engine::send_to_all(net::NodeId from, net::Tag tag,
                         const net::PayloadPtr& payload) {
  for (const auto& n : nodes_) {
    if (n.id != from) net_->send_shared(from, n.id, tag, payload);
  }
}

bool Engine::referee_reachable(net::NodeId id) const {
  const net::FaultInjector* injector = net_->faults();
  if (injector->blacked_out(id)) return false;
  if (!injector->partition_active()) return true;
  // Majority island of the referee committee: the mask shared by the most
  // non-blacked-out seats (ties break toward the smaller mask, which every
  // node computes identically).
  std::map<std::uint64_t, std::size_t> mask_counts;
  for (net::NodeId seat : assign_.referees) {
    // A crashed seat casts no votes: it must not pull the majority island
    // toward wherever it happens to sit (same rule as compute_severed).
    if (!injector->blacked_out(seat) && nodes_[seat].is_active(round_)) {
      mask_counts[injector->island_mask(seat)] += 1;
    }
  }
  if (mask_counts.empty()) return false;
  std::uint64_t majority_mask = 0;
  std::size_t best = 0;
  for (const auto& [mask, count] : mask_counts) {
    if (count > best) {
      best = count;
      majority_mask = mask;
    }
  }
  return injector->island_mask(id) == majority_mask;
}

void Engine::compute_severed() {
  severed_.assign(params_.m, false);
  const net::FaultInjector* injector = net_->faults();
  if (!injector->partition_active() && !has_active_blackout()) return;
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    const CommitteeInfo& info = assign_.committees[k];
    const std::vector<net::NodeId> members = info.all_members();
    // Group every relevant node by island; the committee keeps quorum iff
    // some single island simultaneously holds a committee majority, a
    // referee majority, and a driver (the leader or a partial member) —
    // otherwise no certified result can both form and reach C_R.
    std::map<std::uint64_t, std::size_t> committee_count;
    std::map<std::uint64_t, std::size_t> referee_count;
    std::map<std::uint64_t, bool> has_driver;
    for (net::NodeId id : members) {
      // Only seats that can actually vote this round count toward an
      // island's quorum: a crashed node parked on the majority island
      // is connectivity on paper, not a signer.
      if (injector->blacked_out(id) || !nodes_[id].is_active(round_)) continue;
      const std::uint64_t mask = injector->island_mask(id);
      committee_count[mask] += 1;
      if (id == info.leader ||
          std::find(info.partial.begin(), info.partial.end(), id) !=
              info.partial.end()) {
        has_driver[mask] = true;
      }
    }
    for (net::NodeId id : assign_.referees) {
      if (!injector->blacked_out(id) && nodes_[id].is_active(round_)) {
        referee_count[injector->island_mask(id)] += 1;
      }
    }
    bool has_quorum = false;
    for (const auto& [mask, count] : committee_count) {
      if (count * 2 > members.size() &&
          referee_count[mask] * 2 > assign_.referees.size() &&
          has_driver[mask]) {
        has_quorum = true;
        break;
      }
    }
    severed_[k] = !has_quorum;
  }
}

bool Engine::has_active_blackout() const {
  const net::FaultInjector* injector = net_->faults();
  for (const auto& n : nodes_) {
    if (injector->blacked_out(n.id)) return true;
  }
  return false;
}

crypto::PublicKey Engine::expected_instance_leader(std::uint32_t scope,
                                                   std::uint64_t sn) const {
  if (scope == params_.m) {  // referee scope
    return nodes_[designated_referee(sn)].keys.pk;
  }
  return nodes_[committees_[scope].current_leader].keys.pk;
}

std::vector<net::NodeId> Engine::instance_peers(std::uint32_t scope) const {
  if (scope == params_.m) return assign_.referees;
  return committee_members(scope);
}

void Engine::corrupt(net::NodeId id, Behavior behavior) {
  nodes_[id].behavior = behavior;
  nodes_[id].corrupted_at = round_;  // takes effect from round_+1
}

crypto::Digest catchup_state_digest(
    const crypto::Digest& tip_hash,
    const std::vector<ledger::UtxoStore>& shards) {
  Writer w;
  w.str("cyc.catchup.state");
  w.bytes(crypto::digest_to_bytes(tip_hash));
  for (const auto& shard : shards) {
    w.bytes(crypto::digest_to_bytes(shard.digest()));
  }
  return crypto::sha256(w.out());
}

void Engine::restart(net::NodeId id) {
  NodeState& n = nodes_[id];
  // Only a crashed node can restart; a shrinker-orphaned restart of a
  // live node is a deliberate no-op.
  if (n.behavior != Behavior::kCrash) return;
  n.behavior = Behavior::kHonest;
  n.corrupted_at = ~0ull;
  n.catching_up = true;
  n.catchup_attempts = 0;
  n.catchup_adopted = false;
  n.catchup_tally.clear();
}

void Engine::partition(std::vector<net::NodeId> island,
                       std::uint64_t from_round, std::uint64_t heal_round) {
  net::PartitionSpec spec;
  spec.from_round = from_round;
  spec.heal_round = heal_round;
  spec.island = std::move(island);
  net_->faults()->add_partition(std::move(spec));
}

void Engine::blackout(net::NodeId id, std::uint64_t from_round,
                      std::uint64_t until_round) {
  net_->faults()->add_blackout({id, from_round, until_round});
}

std::uint64_t Engine::heal(std::uint64_t round) {
  return net_->faults()->heal_all(round);
}

bool Engine::impaired(net::NodeId id, std::uint64_t round) const {
  const net::FaultPlan& plan = net_->faults()->plan();
  for (const auto& b : plan.blackouts) {
    if (b.node == id && round >= b.from_round && round < b.until_round) {
      return true;
    }
  }
  for (const auto& p : plan.partitions) {
    if (round < p.from_round || round >= p.heal_round) continue;
    if (std::find(p.island.begin(), p.island.end(), id) != p.island.end()) {
      return true;
    }
  }
  return false;
}

std::vector<net::NodeId> Engine::members() const {
  std::vector<net::NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (n.enrolled) out.push_back(n.id);
  }
  return out;
}

void Engine::reconfigure(const Reconfiguration& reconfig) {
  const std::size_t need =
      params_.referee_size +
      static_cast<std::size_t>(params_.m) * (1 + params_.lambda);
  std::set<net::NodeId> unique(reconfig.members.begin(),
                               reconfig.members.end());
  if (unique.size() != reconfig.members.size()) {
    throw std::invalid_argument("reconfigure: duplicate member ids");
  }
  if (unique.size() < need) {
    throw std::invalid_argument(
        "reconfigure: membership smaller than the role floor (" +
        std::to_string(unique.size()) + " < " + std::to_string(need) + ")");
  }
  for (net::NodeId id : unique) {
    if (id >= nodes_.size()) {
      throw std::invalid_argument("reconfigure: unknown node id " +
                                  std::to_string(id));
    }
  }

  for (auto& n : nodes_) n.enrolled = false;
  for (net::NodeId id : unique) nodes_[id].enrolled = true;

  // Canonical participant order (node id); the draw itself is a pure
  // function of (membership, randomness, reputations).
  const std::vector<net::NodeId> participants(unique.begin(), unique.end());
  std::optional<rng::Stream> uniform;
  if (!options_.reputation_leader_selection) {
    uniform = rng_.fork("epoch-uniform-leaders").fork(reconfig.epoch);
  }
  randomness_ = reconfig.randomness;
  assign_ = draw_assignment(
      participants, round_, randomness_,
      [this](net::NodeId id) { return nodes_[id].reputation; },
      uniform ? &*uniform : nullptr);
  emit(obs::Event::kEpochHandoff, net_->now(), obs::kNoCommittee,
       reconfig.epoch, unique.size());
  // Ledger state (chain_, shard_state_, carryover_, workload_),
  // reputations and rewards deliberately survive untouched — that is the
  // contract the EpochHandoff audit checks.
}

void Engine::start_round_state() {
  // Crash-recovery lifecycle: a restarted node that adopted a majority
  // state digest last round rejoins now (its UTXO view is the per-round
  // shard snapshot taken below, so the adopted digest is what it replays
  // from); one that exhausted its retry budget re-crashes.
  catchup_log_.clear();
  for (auto& n : nodes_) {
    if (!n.catching_up) continue;
    if (n.catchup_adopted) {
      n.catching_up = false;
      n.catchup_adopted = false;
      n.catchup_tally.clear();
    } else if (n.catchup_attempts >= kMaxCatchupRounds) {
      n.catching_up = false;
      n.behavior = Behavior::kCrash;
      n.corrupted_at = 0;
      n.catchup_tally.clear();
      CatchUpRecord record;
      record.node = n.id;
      record.round = round_;
      record.attempt = n.catchup_attempts;
      record.success = false;
      catchup_log_.push_back(record);
    } else {
      n.catchup_tally.clear();  // fresh tally every attempt
    }
  }
  for (auto& n : nodes_) {
    n.role = Role::kCommon;
    n.committee = -1;
    n.round = {};
  }
  for (net::NodeId id : assign_.referees) {
    nodes_[id].role = Role::kReferee;
  }
  for (const auto& committee : assign_.committees) {
    nodes_[committee.leader].role = Role::kLeader;
    nodes_[committee.leader].committee = committee.id;
    for (net::NodeId id : committee.partial) {
      nodes_[id].role = Role::kPartial;
      nodes_[id].committee = committee.id;
    }
    for (net::NodeId id : committee.commons) {
      nodes_[id].role = Role::kCommon;
      nodes_[id].committee = committee.id;
    }
  }
  // Members share their shard's UTXO view (the state their committee is
  // responsible for): one immutable snapshot per shard; nodes outside
  // every committee share one empty store.
  std::vector<std::shared_ptr<const ledger::UtxoStore>> views;
  views.reserve(shard_state_.size());
  for (const auto& shard : shard_state_) {
    views.push_back(std::make_shared<const ledger::UtxoStore>(shard));
  }
  auto outside = std::make_shared<ledger::UtxoStore>(0, shard_map_);
  for (auto& n : nodes_) {
    n.utxo = n.committee >= 0 ? views[static_cast<std::size_t>(n.committee)]
                              : outside;
  }

  committees_.assign(params_.m, CommitteeRound{});
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    committees_[k].current_leader = assign_.committees[k].leader;
  }
  rosters_.assign(params_.m + 1, {});
  for (std::uint32_t scope = 0; scope <= params_.m; ++scope) {
    for (net::NodeId id : instance_peers(scope)) {
      rosters_[scope].push_back(nodes_[id].keys.pk);
    }
  }

  // Draw this round's workload and split per committee; the previous
  // round's Remaining TX List (§IV-G) goes in first. Closed loop: a
  // fixed batch tops the lists up to txs_per_committee * m. Open loop:
  // Poisson arrivals are admitted to the bounded per-shard mempools and
  // each committee drains at most its per-round service budget.
  std::vector<ledger::Transaction> batch = std::move(carryover_);
  carryover_.clear();
  if (!open_loop()) {
    const std::size_t want =
        static_cast<std::size_t>(params_.txs_per_committee) * params_.m;
    const std::size_t fresh = want > batch.size() ? want - batch.size() : 0;
    for (auto& tx : workload_->next_batch(fresh)) {
      batch.push_back(std::move(tx));
    }
  } else {
    openloop_ingest(batch);
  }
  for (auto& tx : batch) {
    const std::uint32_t k = ledger::input_shard(tx, *shard_map_);
    if (ledger::is_intra_shard(tx, *shard_map_)) {
      committees_[k].intra_list.push_back(std::move(tx));
    } else {
      committees_[k].cross_list.push_back(std::move(tx));
    }
  }

  recovery_log_.clear();
  pending_scores_.clear();
  convicted_leaders_.clear();
  released_subblocks_.clear();
  registered_.clear();
  net_->stats().reset();

  // Advance the fault clock before computing quorum-reachability: the
  // schedule activates / expires on round boundaries, and the severed
  // verdicts below must reflect *this* round's connectivity.
  net_->begin_round(round_);
  compute_severed();
}

void Engine::openloop_ingest(std::vector<ledger::Transaction>& batch) {
  openloop_round_ = OpenLoopRoundStats{};

  // Rebalance mode additionally accumulates the per-shard load window
  // the epoch-boundary planner consumes. Pure counting — no RNG — so
  // the branch cannot perturb the off-mode byte streams.
  const bool track_load = params_.rebalance;
  if (track_load && load_window_.offered.empty()) {
    load_window_.offered.assign(params_.m, 0);
  }

  // Generate this round's arrival window and admit into the mempools.
  // A transaction rejected at admission returns its inputs to the
  // workload pool (mark_rejected no-ops for invalid injections).
  const double window_end = openloop_clock_ + params_.round_duration();
  for (auto& arrival : openloop_->arrivals_until(window_end)) {
    openloop_round_.arrived += 1;
    const std::uint32_t k = ledger::input_shard(arrival.tx, *shard_map_);
    if (track_load) {
      load_window_.offered[k] += 1;
      load_window_.account_arrivals[arrival.tx.spender.y] += 1;
    }
    if (mempools_[k].admit(arrival.tx, arrival.time)) {
      openloop_round_.admitted += 1;
      arrival_times_[arrival.tx.id()] = arrival.time;
    } else {
      openloop_round_.mempool_dropped += 1;
      workload_->mark_rejected(arrival.tx);
    }
  }
  openloop_round_.arrived += openloop_->exhausted() - openloop_exhausted_;
  openloop_round_.exhausted = openloop_->exhausted() - openloop_exhausted_;
  openloop_exhausted_ = openloop_->exhausted();
  openloop_clock_ = window_end;

  // Drain each committee's service budget, after its §IV-G carryover
  // share: the Remaining TX List re-enters the lists first and counts
  // against the same per-round bound.
  std::vector<std::size_t> carried(params_.m, 0);
  for (const auto& tx : batch) {
    carried[ledger::input_shard(tx, *shard_map_)] += 1;
  }
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    const std::size_t budget =
        params_.txs_per_committee > carried[k]
            ? params_.txs_per_committee - carried[k]
            : 0;
    for (auto& pending : mempools_[k].drain(budget)) {
      openloop_round_.drained += 1;
      batch.push_back(std::move(pending.tx));
    }
  }
  // Occupancy is sampled HERE, after the drain: it is the backlog
  // carried into the next round, not the pre-service queue depth (see
  // src/ledger/README.md; tests/protocol/test_engine_openloop.cpp pins
  // this).
  openloop_round_.occupancy.reserve(params_.m);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    const std::size_t backlog = mempools_[k].size();
    openloop_round_.backlog += backlog;
    openloop_round_.occupancy.push_back(backlog);
  }
  if (track_load) load_window_.rounds += 1;
}

void Engine::roll_rebalance_window() {
  frozen_window_ = std::move(load_window_);
  load_window_ = ledger::ShardLoadWindow{};
}

std::uint64_t Engine::apply_rebalance(
    std::shared_ptr<const ledger::ShardMap> next,
    const std::vector<ledger::AccountMove>& moves) {
  if (!next || next->shards() != params_.m) {
    throw std::invalid_argument(
        "engine: rebalance map must keep the live shard count");
  }
  // Migrate every re-homed UTXO between the authoritative shard stores
  // (rolling digests stay self-consistent: spend from the old home, add
  // at the new one under the successor map).
  const std::uint64_t migrated =
      ledger::migrate_stores(shard_state_, *shard_map_, next, moves);

  // Re-bucket the admitted open-loop backlog: a pending transaction
  // whose spender moved must wait in its new home's queue or the next
  // drain would hand it to the wrong committee. restore() bypasses
  // admission control — these transactions are already admitted, and
  // dropping one here would break flow conservation.
  if (!mempools_.empty()) {
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      auto moved = mempools_[k].extract_if([&](const ledger::Transaction& tx) {
        return ledger::input_shard(tx, *next) != k;
      });
      for (auto& pending : moved) {
        mempools_[ledger::input_shard(pending.tx, *next)].restore(
            std::move(pending));
      }
    }
  }

  shard_map_ = std::move(next);
  workload_->install_shard_map(shard_map_);
  return migrated;
}

RoundReport Engine::run_round() {
  start_round_state();
  round_start_ = net_->now();
  if (obs_) obs_->round_begin(round_, round_start_, severed_, catchup_log_);
  const double D = params_.delays.delta;

  net::Time t = round_start_;
  net_->schedule(t, [this](net::Time at) { phase_config(at); });
  t += params_.config_duration * D;
  net_->schedule(t, [this](net::Time at) { phase_semicommit(at); });
  t += params_.semicommit_duration * D;
  net_->schedule(t, [this](net::Time at) { phase_intra(at); });
  t += params_.intra_duration * D;
  net_->schedule(t, [this](net::Time at) { phase_inter(at); });
  t += params_.inter_duration * D;
  net_->schedule(t, [this](net::Time at) { phase_reputation(at); });
  t += params_.reputation_duration * D;
  net_->schedule(t, [this](net::Time at) { phase_selection(at); });
  t += params_.selection_duration * D;
  net_->schedule(t, [this](net::Time at) { phase_block(at); });
  t += params_.block_duration * D;

  net_->run(t + 100.0 * D);

  RoundReport report;
  report.round = round_;
  finalize_round(report);
  if (obs_) obs_->round_end(report, assign_, net_->stats(), net_->now());

  last_assign_ = assign_;  // round-start roles (recovery edits committees_)
  round_ += 1;
  assign_ = next_assign_;
  randomness_ = next_randomness_;
  return report;
}

RunReport Engine::run(std::size_t rounds) {
  RunReport report;
  for (std::size_t r = 0; r < rounds; ++r) {
    report.rounds.push_back(run_round());
  }
  report.final_reputations.reserve(nodes_.size());
  report.final_rewards.reserve(nodes_.size());
  report.behaviors.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    report.final_reputations.push_back(n.reputation);
    report.final_rewards.push_back(n.reward);
    report.behaviors.push_back(n.corrupted_at < round_ ? n.behavior
                                                       : Behavior::kHonest);
  }
  return report;
}

double Engine::storage_proxy(const NodeState& n) const {
  double bytes = 0.0;
  bytes += 16.0 * static_cast<double>(n.round.member_list.size());
  bytes += 32.0 * static_cast<double>(n.round.commitments.size());
  n.round.lists.for_each([&](std::uint32_t,
                             const std::vector<crypto::PublicKey>& list) {
    bytes += 8.0 * static_cast<double>(list.size());
  });
  bytes += 48.0 * static_cast<double>(n.utxo->size());
  for (const auto& [sn, cert] : n.round.certs) {
    bytes += static_cast<double>(cert.serialize().size());
  }
  return bytes;
}

void Engine::adopt_quorum_scores() {
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    const auto& results = committees_[k].results;
    const auto it = results.find({ResultKind::kScore, k});
    if (it == results.end() || !referee_quorum(it->second.acks)) continue;
    const auto scores = wire::ScoreListMsg::deserialize(it->second.payload);
    for (const auto& [node, score] : scores.entries) {
      pending_scores_[node] = score;
    }
  }
}

void Engine::finalize_round(RoundReport& report) {
  adopt_quorum_scores();
  report.round_latency = net_->now() - round_start_;
  report.recoveries = recovery_log_.size();
  report.recovery_events = recovery_log_;
  report.catchup_events = catchup_log_;
  report.faults = net_->stats().faults();

  report.committees.resize(params_.m);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    auto& stats = report.committees[k];
    stats.committee = k;
    stats.recoveries = committees_[k].attempt;
    stats.severed = severed_.size() > k && severed_[k];
    stats.txs_listed =
        committees_[k].intra_list.size() + committees_[k].cross_list.size();
    report.txs_offered += stats.txs_listed;
  }

  // Take B^r out of block_ (a permit delivered after the round finds
  // nothing to release) and append it, linkage checked by Chain::append.
  RoundBlock assembled = std::exchange(block_, RoundBlock{});
  const bool ok = chain_.append(assembled.block);
  (void)ok;  // structurally guaranteed; validated again by tests
  last_block_ = std::move(assembled.block);  // chain keeps headers only

  // --- Count B^r as phase_block assembled it. ---
  const std::vector<ledger::Transaction>& committed = last_block_.txs;
  for (const auto& result : assembled.results) {
    auto& origin_stats = report.committees[result.origin];
    const std::size_t kept = result.end - result.begin;
    origin_stats.txs_committed += kept;
    origin_stats.produced_output = true;
    if (result.cross) {
      origin_stats.cross_committed += kept;
      report.cross_committed += kept;
    } else {
      report.intra_committed += kept;
    }
  }
  report.invalid_rejected = assembled.superseded.size();
  report.txs_committed = committed.size();
  report.block_void = committed.empty();

  // --- Apply the block to the authoritative per-shard state. ---
  // Each store applies its slice of the committed list in block order (a
  // tx outside the slice is a no-op for the store), taking a tx's fee
  // just before the apply on its input shard — against the store after
  // txs 0..i-1 applied. The fees are then summed in block order.
  const ledger::RoutedBlock routed(committed, *shard_map_);
  // Safety accounting: a ground-truth-invalid transaction in B^r is a
  // protocol failure, committed like any other and counted here.
  for (std::size_t i = 0; i < committed.size(); ++i) {
    if (!ledger::V(committed[i], shard_state_[routed.input_shard(i)])) {
      report.invalid_committed += 1;
    }
  }
  std::vector<double> fees(committed.size(), 0.0);
  for (std::size_t s = 0; s < shard_state_.size(); ++s) {
    auto& store = shard_state_[s];
    for (std::uint32_t i : routed.slice(static_cast<ledger::ShardId>(s))) {
      if (routed.input_shard(i) == s) {
        fees[i] = static_cast<double>(ledger::tx_fee(committed[i], store));
      }
      store.apply(committed[i], routed.ids()[i]);
    }
  }
  double total_fees = 0.0;
  for (std::size_t i = 0; i < committed.size(); ++i) {
    total_fees += fees[i];
    workload_->mark_committed(committed[i]);
  }
  // A guard loser settled but never commits: its input went to the spend
  // B^r kept, so it leaves the in-flight table without a refund.
  for (const auto& tx : assembled.superseded) workload_->mark_superseded(tx);
  report.total_fees = total_fees;

  // --- One pass over the offered lists: flow conservation (§IV-G). ---
  // Every unique offered transaction is classified exactly once: settled
  // (it reached an acked result), carried (valid but unpacked: the
  // Remaining TX List, retried next round), or dropped (ground-truth
  // invalid, so kept out of the block and counted as rejected). Lists
  // cannot repeat an id today — shard routing is deterministic and the
  // workload never re-issues an in-flight tx — but the flow counters and
  // the carryover must stay in lockstep if that ever changes.
  last_flow_ = RoundFlow{};
  last_flow_.committed = report.txs_committed;
  std::unordered_set<ledger::TxId, ledger::TxIdHash> offered;
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    for (const auto* list :
         {&committees_[k].intra_list, &committees_[k].cross_list}) {
      for (const auto& tx : *list) {
        const ledger::TxId id = tx.id();
        if (!offered.insert(id).second) continue;
        last_flow_.offered += 1;
        if (assembled.settled.contains(id)) {
          last_flow_.settled += 1;
        } else if (workload_->is_ground_truth_valid(id)) {
          carryover_.push_back(tx);
          last_flow_.carried += 1;
        } else {
          workload_->mark_rejected(tx);
          last_flow_.dropped += 1;
          report.invalid_rejected += 1;
          // A dropped transaction will never commit: retire its
          // arrival stamp (no-op in closed-loop mode).
          arrival_times_.erase(id);
        }
      }
    }
  }
  last_flow_.foreign = assembled.settled.size() - last_flow_.settled;

  // --- Open-loop latency accounting. --- Every committed transaction's
  // end-to-end latency is its block-commit stamp (the end of this
  // round's arrival window, in simulated time) minus its admission
  // timestamp. Carryover transactions keep their stamps and pay for the
  // extra rounds they wait.
  if (open_loop()) {
    openloop_round_.source_shortfall = workload_->shortfall();
    for (std::size_t i = 0; i < committed.size(); ++i) {
      const auto it = arrival_times_.find(routed.ids()[i]);
      if (it == arrival_times_.end()) continue;  // e.g. genesis carryover
      openloop_round_.latencies.push_back(openloop_clock_ - it->second);
      openloop_round_.latency_shards.push_back(routed.input_shard(i));
      arrival_times_.erase(it);
    }
    report.open_loop = openloop_round_;
  }

  // --- Reputation updates (§IV-E scores, §VII-A bonus, §VII-B punish). ---
  for (const auto& [id, delta] : pending_scores_) {
    // Convicted leaders forfeit any score earned this round; the cube
    // root below is their only reputation event (§VII-B).
    if (convicted_leaders_.contains(id)) continue;
    nodes_[id].reputation += delta;
  }
  for (const auto& result : assembled.results) {
    const net::NodeId leader = committees_[result.committee].current_leader;
    if (!result.cross && !convicted_leaders_.contains(leader)) {
      nodes_[leader].reputation += kLeaderBonus;
    }
  }
  for (net::NodeId id : assign_.referees) {
    if (nodes_[id].is_active(round_)) {
      nodes_[id].reputation += kRefereeCredit;
    }
  }
  for (net::NodeId id : convicted_leaders_) {
    nodes_[id].reputation = punish_leader(nodes_[id].reputation);
  }

  // --- Reward distribution proportional to g(reputation) (Eq. 2). ---
  // Only the enrolled membership shares the fees; standby / retired
  // identities took no part in the round (g(0) = 1 would otherwise let
  // them free-ride on every block).
  std::vector<net::NodeId> earners;
  std::vector<double> reputations;
  earners.reserve(nodes_.size());
  reputations.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (!n.enrolled) continue;
    earners.push_back(n.id);
    reputations.push_back(n.reputation);
  }
  const std::vector<double> rewards =
      distribute_rewards(reputations, total_fees);
  for (std::size_t i = 0; i < earners.size(); ++i) {
    nodes_[earners[i]].reward += rewards[i];
  }

  // --- Traffic / storage accounting by role. ---
  report.traffic_total = net_->stats().grand_total();
  for (const auto& n : nodes_) {
    report.role_counts[n.role] += 1;
    auto& phases = report.traffic_by_role_phase[n.role];
    phases.resize(static_cast<std::size_t>(net::Phase::kCount));
    for (std::size_t p = 0; p < phases.size(); ++p) {
      phases[p] += net_->stats().at(n.id, static_cast<net::Phase>(p));
    }
    report.storage_by_role[n.role] += storage_proxy(n);
  }
  for (auto& [role, total] : report.storage_by_role) {
    total /= static_cast<double>(report.role_counts[role]);
  }
}

void Engine::compute_selection() {
  // Beacon within C_R: each referee deals a PVSS sharing; the share
  // traffic (|C_R|^2 messages) is injected onto the wire for accounting.
  std::vector<std::uint64_t> dealer_secrets;
  rng::Stream beacon_rng = rng_.fork("beacon").fork(round_);
  for (net::NodeId id : assign_.referees) {
    (void)id;
    dealer_secrets.push_back(beacon_rng.below(crypto::kQ));
  }
  const auto share_payload = net::make_payload(Bytes(24, 0));
  for (net::NodeId a : assign_.referees) {
    net_->multicast_shared(a, assign_.referees, net::Tag::kBeaconShare,
                           share_payload);
  }
  const auto beacon =
      crypto::RandomnessBeacon::run(round_ + 1, dealer_secrets, {}, beacon_rng);
  next_randomness_ = beacon.randomness;

  // Participants: nodes whose PoW registration reached the referees.
  std::vector<net::NodeId> participants(registered_.begin(),
                                        registered_.end());
  if (participants.size() <
      params_.referee_size + params_.m * (1 + params_.lambda)) {
    // Degenerate fallback (tiny tests): every active member participates.
    participants.clear();
    for (const auto& n : nodes_) {
      if (n.enrolled && n.is_active(round_ + 1)) participants.push_back(n.id);
    }
  }

  // Leader selection happens after the reputation-updating phase, so this
  // round's scores (and any pending conviction punishment) are already
  // reflected.
  auto effective_rep = [this](net::NodeId id) {
    if (convicted_leaders_.contains(id)) {
      return punish_leader(nodes_[id].reputation);
    }
    double rep = nodes_[id].reputation;
    auto it = pending_scores_.find(id);
    if (it != pending_scores_.end()) rep += it->second;
    return rep;
  };
  std::optional<rng::Stream> uniform;
  if (!options_.reputation_leader_selection) {
    uniform = rng_.fork("uniform-leaders").fork(round_);
  }
  next_assign_ = draw_assignment(participants, round_ + 1, next_randomness_,
                                 effective_rep, uniform ? &*uniform : nullptr);
  emit(obs::Event::kLeadersSelected, net_->now(), obs::kNoCommittee,
       round_ + 1, participants.size());
}

template <typename RepFn>
RoundAssignment Engine::draw_assignment(
    const std::vector<net::NodeId>& participants, std::uint64_t next_round,
    const crypto::Digest& randomness, RepFn&& reputation_of,
    rng::Stream* uniform_leaders) {
  RoundAssignment next;
  next.round = next_round;

  std::set<net::NodeId> taken;

  // Leaders: the m participants with the highest reputation (§IV-F), or a
  // uniform draw for the ablation.
  std::vector<net::NodeId> by_rep = participants;
  if (uniform_leaders == nullptr) {
    std::sort(by_rep.begin(), by_rep.end(),
              [&](net::NodeId a, net::NodeId b) {
      const double ra = reputation_of(a), rb = reputation_of(b);
      if (ra != rb) return ra > rb;
      return nodes_[a].keys.pk.y < nodes_[b].keys.pk.y;
    });
  } else {
    rng::shuffle(by_rep, *uniform_leaders);
  }
  next.committees.resize(params_.m);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    next.committees[k].id = k;
    next.committees[k].leader = by_rep[k];
    taken.insert(by_rep[k]);
  }

  // Referees: rank by the role-hash lottery H(r+1 || R^r || PK || role)
  // (§IV-F); taking the best `referee_size` implements a difficulty d
  // that yields the target committee size exactly.
  auto rank_by_role = [&](std::string_view role) {
    std::vector<std::pair<std::uint64_t, net::NodeId>> ranked;
    for (net::NodeId id : participants) {
      if (taken.contains(id)) continue;
      ranked.emplace_back(
          role_hash(next_round, randomness, nodes_[id].keys.pk, role), id);
    }
    std::sort(ranked.begin(), ranked.end());
    return ranked;
  };

  for (const auto& [h, id] : rank_by_role(kRoleReferee)) {
    if (next.referees.size() >= params_.referee_size) break;
    next.referees.push_back(id);
    taken.insert(id);
  }

  // Partial sets: winners placed by H(...) mod m, overflowing to the next
  // committee with room so each set has exactly lambda members.
  {
    std::vector<std::size_t> room(params_.m, params_.lambda);
    for (const auto& [h, id] : rank_by_role(kRolePartial)) {
      bool placed = false;
      std::uint32_t want =
          partial_committee(next_round, randomness, nodes_[id].keys.pk,
                            params_.m);
      for (std::uint32_t off = 0; off < params_.m; ++off) {
        const std::uint32_t k = (want + off) % params_.m;
        if (room[k] > 0) {
          next.committees[k].partial.push_back(id);
          room[k] -= 1;
          taken.insert(id);
          placed = true;
          break;
        }
      }
      if (!placed) break;  // all sets full
    }
  }

  // Everyone else: committee via cryptographic sortition (Alg. 1) with
  // the new randomness; the node re-derives this itself in the next
  // round's configuration phase.
  for (net::NodeId id : participants) {
    if (taken.contains(id)) continue;
    NodeState& n = nodes_[id];
    n.ticket = crypto_sort(n.keys, next_round, randomness, params_.m);
    next.committees[n.ticket.committee].commons.push_back(id);
  }
  return next;
}

}  // namespace cyc::protocol
