// Engine part 2: phase drivers, message handlers, Algorithm 3 plumbing,
// leader duties and the recovery procedure (Alg. 6).
#include <algorithm>

#include "protocol/engine.hpp"
#include "protocol/payloads.hpp"
#include "protocol/sn_layout.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "obs/observer.hpp"
#include "support/parallel.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {

// ---------------------------------------------------------------------------
// Phase drivers
// ---------------------------------------------------------------------------

void Engine::phase_config(net::Time at) {
  net_->set_phase(net::Phase::kCommitteeConfig);
  current_phase_ = net::Phase::kCommitteeConfig;
  obs_phase(net::Phase::kCommitteeConfig, at);
  // Key members seed their list S with the committee's key members
  // (addresses known from block B^{r-1}). Every key member belongs to
  // exactly one committee, so the per-committee jobs write disjoint node
  // state and fan out without a merge step.
  support::parallel_for(
      params_.m,
      [&](std::size_t k) {
        for (net::NodeId id : assign_.committees[k].key_members()) {
          NodeState& key_member = nodes_[id];
          for (net::NodeId peer : assign_.committees[k].key_members()) {
            if (key_member.known_pks.insert(nodes_[peer].keys.pk.y).second) {
              key_member.member_list.push_back(nodes_[peer].keys.pk);
            }
          }
        }
      },
      options_.engine_threads);
  // Non-key members run CRYPTO_SORT and register with the key members.
  // Two stages: the per-common self-registration and Intro serialization
  // are node-disjoint pure compute; payload creation (thread_local alloc
  // counters) and sends run on the engine thread in (committee, id)
  // order so the simulator's delay-RNG draw order matches the
  // sequential path byte for byte.
  struct IntroJob {
    std::uint32_t k;
    net::NodeId id;
    Bytes wire_bytes;
  };
  std::vector<IntroJob> intros;
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    for (net::NodeId id : assign_.committees[k].commons) {
      if (!nodes_[id].is_active(round_)) continue;
      intros.push_back(IntroJob{k, id, {}});
    }
  }
  support::parallel_for(
      intros.size(),
      [&](std::size_t i) {
        NodeState& common = nodes_[intros[i].id];
        common.known_pks.insert(common.keys.pk.y);
        common.member_list.push_back(common.keys.pk);
        wire::Intro intro{common.id, common.keys.pk, common.ticket};
        intros[i].wire_bytes = intro.serialize();
      },
      options_.engine_threads);
  for (std::size_t i : support::stage_order(intros.size())) {
    const auto& job = intros[i];
    const auto payload = net::make_payload(job.wire_bytes);
    for (net::NodeId km : assign_.committees[job.k].key_members()) {
      net_->send_shared(job.id, km, net::Tag::kConfig, payload);
    }
  }
  // Restarted nodes spend the configuration phase asking the referees for
  // the current state digest instead of participating.
  for (auto& n : nodes_) {
    if (!n.catching_up) continue;
    n.catchup_attempts += 1;
    Writer w;
    w.u32(n.id);
    const auto payload = net::make_payload(w.take());
    for (net::NodeId rm : assign_.referees) {
      net_->send_shared(n.id, rm, net::Tag::kCatchUpRequest, payload);
    }
  }
  (void)at;
}

void Engine::phase_semicommit(net::Time at) {
  net_->set_phase(net::Phase::kSemiCommit);
  current_phase_ = net::Phase::kSemiCommit;
  obs_phase(net::Phase::kSemiCommit, at);
  // Two-stage fan-out: commitment hashing + double signing + wire
  // serialization per committee on the pool, emission in committee-index
  // order on the engine thread (see "Execution model" in
  // src/protocol/README.md).
  std::vector<Bytes> built(params_.m);
  support::parallel_for(
      params_.m,
      [&](std::size_t k) {
        NodeState& leader = nodes_[committees_[k].current_leader];
        built[k] = build_semicommit(leader, static_cast<std::uint32_t>(k));
      },
      options_.engine_threads);
  for (std::size_t k : support::stage_order(params_.m)) {
    if (built[k].empty()) continue;
    NodeState& leader = nodes_[committees_[k].current_leader];
    emit_semicommit(leader, static_cast<std::uint32_t>(k), built[k]);
  }
  // A silent leader is only impeachable once common members can
  // corroborate the silence (they never see SEMI_COM traffic), so the
  // timeout accusation for crashed leaders fires at the intra deadline.
  (void)at;
}

void Engine::phase_intra(net::Time at) {
  net_->set_phase(net::Phase::kIntraConsensus);
  current_phase_ = net::Phase::kIntraConsensus;
  obs_phase(net::Phase::kIntraConsensus, at);
  // Two-stage fan-out: the leader's tx-list signing + serialization per
  // committee runs on the pool; the multicast, the leader's own vote
  // (ledger::V — verdict cache) and the tally timer run on the engine
  // thread in committee-index order.
  {
    std::vector<Bytes> built(params_.m);
    support::parallel_for(
        params_.m,
        [&](std::size_t k) {
          built[k] = build_intra_txlist(static_cast<std::uint32_t>(k));
        },
        options_.engine_threads);
    for (std::size_t k : support::stage_order(params_.m)) {
      if (built[k].empty()) continue;
      emit_intra_txlist(static_cast<std::uint32_t>(k), built[k], at);
    }
  }
  const net::Time deadline =
      at + 0.7 * params_.intra_duration * params_.delays.delta;
  net_->schedule(deadline, [this](net::Time now) {
    if (!options_.recovery_enabled) return;
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      for (net::NodeId id : assign_.committees[k].partial) {
        NodeState& pm = nodes_[id];
        if (!pm.is_active(round_) || pm.misbehaves(round_)) continue;
        if (!pm.leader_sent_txlist && !committees_[k].leader_convicted) {
          begin_accusation(pm, k, WitnessKind::kTimeout, {}, now);
          break;
        }
      }
    }
    // Framers strike here: fabricate a witness against an honest leader.
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      for (net::NodeId id : assign_.committees[k].partial) {
        NodeState& pm = nodes_[id];
        if (pm.behavior == Behavior::kFramer && pm.misbehaves(round_) &&
            !pm.accused_this_round) {
          Writer w;
          w.str("bogus-witness");
          begin_accusation(pm, k, WitnessKind::kEquivocation, w.take(), now);
        }
      }
    }
  });
}

void Engine::phase_inter(net::Time at) {
  net_->set_phase(net::Phase::kInterConsensus);
  current_phase_ = net::Phase::kInterConsensus;
  obs_phase(net::Phase::kInterConsensus, at);
  if (options_.extension_precommunication) {
    // The §VIII-A pre-check interleaves sends with ledger::V filtering,
    // so it cannot be split into a pure compute stage — run the whole
    // phase sequentially (the reference path).
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      leader_start_cross(k, at);
    }
    return;
  }
  std::vector<Bytes> built(params_.m);
  support::parallel_for(
      params_.m,
      [&](std::size_t k) {
        built[k] = build_cross_txlist(static_cast<std::uint32_t>(k));
      },
      options_.engine_threads);
  for (std::size_t k : support::stage_order(params_.m)) {
    if (built[k].empty()) continue;
    emit_cross_txlist(static_cast<std::uint32_t>(k), built[k], at);
  }
}

void Engine::phase_reputation(net::Time at) {
  net_->set_phase(net::Phase::kReputation);
  current_phase_ = net::Phase::kReputation;
  obs_phase(net::Phase::kReputation, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_send_scores(k, at);
  }
}

void Engine::phase_selection(net::Time at) {
  net_->set_phase(net::Phase::kSelection);
  current_phase_ = net::Phase::kSelection;
  obs_phase(net::Phase::kSelection, at);
  // Adopt the quorum-acked score reports before compute_selection reads
  // the effective reputations (finalize_round re-runs this for reports
  // whose quorum completed later in the round).
  adopt_quorum_scores();
  const Bytes challenge =
      concat({bytes_of("cyc.round"), be64(round_),
              crypto::digest_to_bytes(randomness_)});
  const std::uint64_t target = crypto::pow_target_for_bits(params_.pow_bits);
  // Two-stage fan-out: the PoW search is the single most expensive pure
  // computation of the round (a bounded nonce scan per enrolled node),
  // so it runs on the pool; the solution sends run on the engine thread
  // in node-id order so delay-RNG draw order matches the sequential
  // path.
  std::vector<net::NodeId> solvers;
  for (const auto& n : nodes_) {
    if (!n.enrolled) continue;               // standby identities sit out
    if (!n.is_active(round_ + 1)) continue;  // crashed nodes sit out
    solvers.push_back(n.id);
  }
  std::vector<Bytes> solutions(solvers.size());
  support::parallel_for(
      solvers.size(),
      [&](std::size_t i) {
        const NodeState& n = nodes_[solvers[i]];
        const Bytes per_node = concat({challenge, be64(n.keys.pk.y)});
        const auto solution = crypto::pow_solve(per_node, target, 0, 1u << 20);
        if (!solution) return;
        wire::PowMsg msg{n.id, n.keys.pk, solution->nonce, solution->digest};
        solutions[i] = msg.serialize();
      },
      options_.engine_threads);
  for (std::size_t i : support::stage_order(solvers.size())) {
    if (solutions[i].empty()) continue;
    const auto payload = net::make_payload(solutions[i]);
    for (net::NodeId rm : assign_.referees) {
      net_->send_shared(solvers[i], rm, net::Tag::kPowSolution, payload);
    }
  }
  const net::Time when =
      at + 0.8 * params_.selection_duration * params_.delays.delta;
  net_->schedule(when, [this](net::Time) { compute_selection(); });
}

void Engine::phase_block(net::Time at) {
  net_->set_phase(net::Phase::kBlock);
  current_phase_ = net::Phase::kBlock;
  obs_phase(net::Phase::kBlock, at);
  // The designated referee proposes the block content; C_R agrees via
  // Algorithm 3; on certification the block is released to everyone.
  const net::NodeId proposer = designated_referee(seq::kBlock);
  NodeState& referee = nodes_[proposer];
  wire::BlockMsg block;
  block.round = round_;
  // Only results a majority of referees acked enter the proposal — a
  // result stranded on a minority island of a partitioned C_R stays out.
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    if (committees_[k].intra_result &&
        referee_quorum(committees_[k].intra_acks)) {
      const auto decision =
          wire::IntraDecision::deserialize(*committees_[k].intra_result);
      for (const auto& tx : decision.txdec_set) block.txs.push_back(tx);
    }
    for (const auto& [origin, payload] : committees_[k].cross_results) {
      auto acks = committees_[k].cross_acks.find(origin);
      if (acks == committees_[k].cross_acks.end() ||
          !referee_quorum(acks->second)) {
        continue;
      }
      const auto result = wire::CrossResultMsg::deserialize(payload);
      for (const auto& tx : result.request.txs) block.txs.push_back(tx);
    }
  }
  block.randomness = next_randomness_;
  std::vector<Bytes> leaves;
  leaves.reserve(block.txs.size());
  for (const auto& tx : block.txs) leaves.push_back(tx.serialize());
  block.body_root = crypto::MerkleTree(leaves).root();
  block_payload_ = block.serialize();
  leader_start_instance(referee, params_.m, seq::kBlock, block_payload_);
  // Committee leaders also certify their final UTXO list for hand-off to
  // the next round's partial sets (§IV-G).
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    NodeState& leader = nodes_[committees_[k].current_leader];
    if (!leader.is_active(round_) ||
        (leader.misbehaves(round_) && leader.behavior == Behavior::kCrash)) {
      continue;
    }
    Writer w;
    w.str("UTXO_FINAL");
    w.u32(k);
    w.bytes(crypto::digest_to_bytes(leader.utxo->digest()));
    leader_start_instance(leader, k, seq::utxo(committees_[k].attempt),
                          w.take());
  }
  (void)at;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

void Engine::handle(net::NodeId id, const net::Message& msg, net::Time now) {
  NodeState& self = nodes_[id];
  // Catch-up traffic bypasses the activity gate: a catching-up node is
  // inactive for the protocol proper but must still receive the referee
  // replies that let it rejoin. The handlers re-check roles themselves.
  if (msg.tag == net::Tag::kCatchUpRequest) {
    on_catchup_request(self, msg);
    return;
  }
  if (msg.tag == net::Tag::kCatchUpReply) {
    on_catchup_reply(self, msg);
    return;
  }
  if (!self.is_active(round_)) return;  // crashed: pretend offline
  try {
    switch (msg.tag) {
      case net::Tag::kConfig: on_config(self, msg); break;
      case net::Tag::kMemberList: on_member_list(self, msg); break;
      case net::Tag::kMember: on_member(self, msg); break;
      case net::Tag::kPropose:
      case net::Tag::kEcho:
      case net::Tag::kConfirm:
        on_consensus_msg(self, msg, now);
        break;
      case net::Tag::kSemiCommit: on_semicommit(self, msg, now); break;
      case net::Tag::kSemiCommitAck: on_semicommit_ack(self, msg, now); break;
      case net::Tag::kTxList: on_txlist(self, msg); break;
      case net::Tag::kVote: on_vote(self, msg); break;
      case net::Tag::kCrossTxList: on_cross_txlist(self, msg, now); break;
      case net::Tag::kCrossPartialHint: on_cross_hint(self, msg, now); break;
      case net::Tag::kCrossResult: on_cross_result(self, msg); break;
      case net::Tag::kScoreReport: on_score_report(self, msg); break;
      case net::Tag::kIntraResult: on_intra_result(self, msg); break;
      case net::Tag::kAccuse: on_accuse(self, msg, now); break;
      case net::Tag::kImpeachVote: on_impeach_vote(self, msg, now); break;
      case net::Tag::kProsecute: on_prosecute(self, msg, now); break;
      case net::Tag::kNewLeader: on_new_leader(self, msg, now); break;
      case net::Tag::kPowSolution: {
        if (self.role != Role::kReferee) break;
        const auto pow = wire::PowMsg::deserialize(msg.payload());
        // Referees only register the current membership; a standby or
        // retired identity must re-enter through the epoch join puzzle.
        if (pow.node >= nodes_.size() || !nodes_[pow.node].enrolled) break;
        const Bytes challenge =
            concat({bytes_of("cyc.round"), be64(round_),
                    crypto::digest_to_bytes(randomness_), be64(pow.pk.y)});
        if (crypto::pow_verify(challenge, crypto::pow_target_for_bits(
                                              params_.pow_bits),
                               {pow.nonce, pow.digest})) {
          registered_.insert(pow.node);
        }
        break;
      }
      case net::Tag::kBlock:
      case net::Tag::kSubBlock:
        on_block(self, msg);
        break;
      case net::Tag::kBlockPermit: {
        // §VIII-B: permitted leader broadcasts its committee's sub-block.
        if (self.committee < 0) break;
        const std::uint32_t k = static_cast<std::uint32_t>(self.committee);
        if (self.id != committees_[k].current_leader) break;
        if (!committees_[k].intra_result) break;
        const auto decision =
            wire::IntraDecision::deserialize(*committees_[k].intra_result);
        wire::BlockMsg sub;
        sub.round = round_;
        sub.txs = decision.txdec_set;
        sub.randomness = next_randomness_;
        const auto payload = net::make_payload(sub.serialize());
        for (const auto& n : nodes_) {
          if (n.id == self.id) continue;
          net_->send_shared(self.id, n.id, net::Tag::kSubBlock, payload);
        }
        break;
      }
      case net::Tag::kScoreList:
      case net::Tag::kAbort:
      case net::Tag::kUtxoHandoff:
      case net::Tag::kBeaconShare:
      case net::Tag::kPreCommQuery:
      case net::Tag::kPreCommReply:
        break;  // accounted, no further state transitions needed
      default:
        break;
    }
  } catch (const std::exception&) {
    // Malformed payloads from adversarial senders are dropped silently;
    // honest code never produces them.
  }
}

void Engine::on_block(NodeState& self, const net::Message& msg) {
  // Members refresh their shard view from the released (sub-)block.
  if (self.committee < 0) return;
  auto it = released_.find(msg.body.get());
  if (it == released_.end()) {
    auto block = wire::BlockMsg::deserialize(msg.payload());
    it = released_
             .emplace(msg.body.get(),
                      ReleasedBlock{msg.body,
                                    ledger::RoutedBlock(std::move(block.txs),
                                                        *shard_map_),
                                    {}})
             .first;
  }
  ReleasedBlock& released = it->second;
  auto [step, fresh] = released.successors.try_emplace(self.utxo.get());
  if (fresh) {
    step->second.base = self.utxo;
    if (released.routed.slice(self.utxo->shard()).empty()) {
      step->second.next = self.utxo;  // nothing here for this shard
    } else {
      auto next = std::make_shared<ledger::UtxoStore>(*self.utxo);
      released.routed.apply_to(*next);
      step->second.next = std::move(next);
    }
  }
  self.utxo = step->second.next;
}

// ---------------------------------------------------------------------------
// Committee configuration (Alg. 2)
// ---------------------------------------------------------------------------

void Engine::on_config(NodeState& self, const net::Message& msg) {
  if (self.role != Role::kLeader && self.role != Role::kPartial) return;
  if (self.misbehaves(round_) && self.behavior == Behavior::kCrash) return;
  const auto intro = wire::Intro::deserialize(msg.payload());
  if (intro.ticket.committee != static_cast<std::uint32_t>(self.committee)) {
    return;
  }
  if (!verify_sortition(intro.pk, round_, randomness_, params_.m,
                        intro.ticket)) {
    return;
  }
  // Respond with the current list, then register the newcomer.
  wire::MemberListMsg list;
  for (const auto& pk : self.member_list) {
    const net::NodeId nid = node_of_pk(pk);
    list.nodes.push_back(nid);
    list.pks.push_back(pk);
  }
  net_->send(self.id, intro.node, net::Tag::kMemberList, list.serialize());
  if (self.known_pks.insert(intro.pk.y).second) {
    self.member_list.push_back(intro.pk);
  }
}

void Engine::on_member_list(NodeState& self, const net::Message& msg) {
  const auto list = wire::MemberListMsg::deserialize(msg.payload());
  std::vector<net::NodeId> fresh;
  for (std::size_t i = 0; i < list.pks.size(); ++i) {
    if (self.known_pks.insert(list.pks[i].y).second) {
      self.member_list.push_back(list.pks[i]);
      fresh.push_back(list.nodes[i]);
    }
  }
  // Introduce ourselves to previously unconnected members on the list.
  wire::Intro intro{self.id, self.keys.pk, self.ticket};
  const auto payload = net::make_payload(intro.serialize());
  for (net::NodeId peer : fresh) {
    if (peer == self.id) continue;
    net_->send_shared(self.id, peer, net::Tag::kMember, payload);
  }
}

void Engine::on_member(NodeState& self, const net::Message& msg) {
  const auto intro = wire::Intro::deserialize(msg.payload());
  if (intro.ticket.committee != static_cast<std::uint32_t>(self.committee)) {
    return;
  }
  if (!verify_sortition(intro.pk, round_, randomness_, params_.m,
                        intro.ticket)) {
    return;
  }
  if (self.known_pks.insert(intro.pk.y).second) {
    self.member_list.push_back(intro.pk);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 3 plumbing
// ---------------------------------------------------------------------------

void Engine::send_consensus(net::NodeId from,
                            const std::vector<net::NodeId>& to, net::Tag tag,
                            std::uint32_t scope, std::uint64_t sn,
                            const Bytes& wire) {
  wire::ConsensusEnvelope env{scope, sn, wire};
  net_->multicast(from, to, tag, env.serialize());
}

void Engine::leader_start_instance(NodeState& self, std::uint32_t scope,
                                   std::uint64_t sn, Bytes message) {
  consensus::InstanceId iid{round_, sn};
  auto [it, inserted] = self.lead.try_emplace(
      sn, consensus::LeaderInstance(self.keys, iid, std::move(message),
                                    instance_size(scope)));
  if (!inserted) return;
  const auto peers = instance_peers(scope);

  if (self.misbehaves(round_) && self.behavior == Behavior::kEquivocator &&
      scope < params_.m) {
    // Propose the real message to half the committee and a divergent one
    // to the other half (detected via relayed PROPOSEs).
    const auto honest_wire = it->second.make_propose().serialize();
    const auto evil_wire =
        it->second.make_equivocating_propose(bytes_of("equivocation"))
            .serialize();
    std::vector<net::NodeId> first_half, second_half;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      (i % 2 == 0 ? first_half : second_half).push_back(peers[i]);
    }
    send_consensus(self.id, first_half, net::Tag::kPropose, scope, sn,
                   honest_wire);
    send_consensus(self.id, second_half, net::Tag::kPropose, scope, sn,
                   evil_wire);
    return;
  }

  const auto wire = it->second.make_propose().serialize();
  send_consensus(self.id, peers, net::Tag::kPropose, scope, sn, wire);
  // The leader processes its own proposal as a member too (it counts
  // toward the >C/2 quorum).
  auto [mit, minserted] = self.member.try_emplace(
      sn, consensus::MemberInstance(self.keys, self.id, iid, self.keys.pk,
                                    instance_size(scope)));
  if (minserted) {
    auto out = mit->second.on_propose(
        consensus::ProposeWire::deserialize(wire));
    process_member_output(self, scope, sn, std::move(out), net_->now());
  }
}

void Engine::process_member_output(NodeState& self, std::uint32_t scope,
                                   std::uint64_t sn,
                                   consensus::MemberOutput out,
                                   net::Time now) {
  if (out.witness && scope < params_.m && options_.recovery_enabled &&
      !self.misbehaves(round_)) {
    // Only partial-set members arouse the recovery procedure (§IV-B);
    // common members who catch the leader simply stop participating.
    if (self.role == Role::kPartial && !self.accused_this_round) {
      begin_accusation(self, scope, WitnessKind::kEquivocation,
                       out.witness->serialize(), now);
    }
    return;
  }
  if (out.echo_broadcast) {
    send_consensus(self.id, instance_peers(scope), net::Tag::kEcho, scope, sn,
                   out.echo_broadcast->serialize());
    // Deliver our echo to our own member instance as well.
    auto it = self.member.find(sn);
    if (it != self.member.end()) {
      auto echo_out = it->second.on_echo(*out.echo_broadcast);
      if (echo_out.confirm_to_leader && !out.confirm_to_leader) {
        out.confirm_to_leader = std::move(echo_out.confirm_to_leader);
      }
    }
  }
  if (out.confirm_to_leader) {
    const crypto::PublicKey leader_pk = expected_instance_leader(scope, sn);
    const net::NodeId leader_id = node_of_pk(leader_pk);
    if (leader_id == self.id) {
      auto lit = self.lead.find(sn);
      if (lit != self.lead.end()) {
        if (auto cert = lit->second.on_confirm(*out.confirm_to_leader)) {
          self.certs[sn] = *cert;
          on_cert(self, scope, sn, *cert);
        }
      }
    } else if (leader_id != net::kNoNode) {
      wire::ConsensusEnvelope env{scope, sn,
                                  out.confirm_to_leader->serialize()};
      net_->send(self.id, leader_id, net::Tag::kConfirm, env.serialize());
    }
  }
}

void Engine::on_consensus_msg(NodeState& self, const net::Message& msg,
                              net::Time now) {
  const auto env = wire::ConsensusEnvelope::deserialize(msg.payload());
  // Route by scope: committee members only participate in instances of
  // their own committee; referees in referee-scope instances.
  if (env.scope == params_.m) {
    if (self.role != Role::kReferee) return;
  } else {
    if (self.committee != static_cast<std::int64_t>(env.scope)) return;
  }

  const consensus::InstanceId iid{round_, env.sn};
  const crypto::PublicKey leader_pk =
      expected_instance_leader(env.scope, env.sn);

  if (msg.tag == net::Tag::kConfirm) {
    auto it = self.lead.find(env.sn);
    if (it == self.lead.end()) return;
    if (auto cert =
            it->second.on_confirm(consensus::ConfirmWire::deserialize(env.wire))) {
      self.certs[env.sn] = *cert;
      on_cert(self, env.scope, env.sn, *cert);
    }
    return;
  }

  auto [it, inserted] = self.member.try_emplace(
      env.sn, consensus::MemberInstance(self.keys, self.id, iid, leader_pk,
                                        instance_size(env.scope)));
  consensus::MemberOutput out;
  if (msg.tag == net::Tag::kPropose) {
    // Track leader engagement for the 2*Gamma concealment rule.
    if (env.scope < params_.m && seq::is_cross_in(env.sn)) {
      self.cross_seen_propose.insert(seq::cross_in_origin(env.sn));
    }
    out = it->second.on_propose(consensus::ProposeWire::deserialize(env.wire));
  } else {
    out = it->second.on_echo(consensus::EchoWire::deserialize(env.wire));
  }
  process_member_output(self, env.scope, env.sn, std::move(out), now);
}

// ---------------------------------------------------------------------------
// Certificates: what each agreed instance triggers
// ---------------------------------------------------------------------------

void Engine::on_cert(NodeState& self, std::uint32_t scope, std::uint64_t sn,
                     const consensus::QuorumCert& cert) {
  // Every cert holder runs this handler; the formation instant fires only
  // for the first holder (obs_first_cert dedups on (scope, sn)).
  if (obs_ != nullptr && obs_first_cert(scope, sn)) {
    const std::uint32_t track = scope < params_.m
                                    ? obs::kTrackCommitteeBase + scope
                                    : obs::kTrackProtocol;
    obs_->trace.instant(track, "qc-formed", "consensus", net_->now(),
                        {{"scope", static_cast<double>(scope)},
                         {"sn", static_cast<double>(sn)},
                         {"signers",
                          static_cast<double>(cert.confirms.size())}});
    obs_->metrics.counter("consensus.certs").add();
  }
  if (scope == params_.m) {
    // Referee-scope instances.
    if (sn == seq::kBlock) {
      // Block certified.
      auto it = self.lead.find(sn);
      if (it == self.lead.end()) return;
      if (options_.extension_parallel_blocks) {
        // §VIII-B: C_R only issues permissions; each leader broadcasts
        // its own sub-block, removing the O(mn) burden from C_R.
        const auto permit = net::make_payload(Bytes(40, 0));
        for (std::uint32_t k = 0; k < params_.m; ++k) {
          net_->send_shared(self.id, committees_[k].current_leader,
                            net::Tag::kBlockPermit, permit);
        }
        return;
      }
      // Release to the whole network (§IV-G): the O(mn) burden of
      // Table II. One shared buffer serves all n-1 receivers.
      const auto payload = net::make_payload(block_payload_);
      for (const auto& n : nodes_) {
        if (n.id == self.id) continue;
        net_->send_shared(self.id, n.id, net::Tag::kBlock, payload);
      }
      return;
    }
    if (seq::is_reselect(sn)) {
      // Leader re-selection agreed: announce the new leader.
      announce_new_leader(self, seq::reselect_committee(sn));
      return;
    }
    if (seq::is_semi_check(sn)) {
      // Semi-commitment accepted by C_R: relay to all key members.
      const std::uint32_t k = seq::semi_check_committee(sn);
      wire::SemiCommitAck ack;
      ack.committee = k;
      auto cit = self.commitments.find(k);
      auto lit = self.lists.find(k);
      if (cit == self.commitments.end() || lit == self.lists.end()) return;
      ack.commitment = cit->second;
      ack.members = lit->second;
      ack.cert = cert.serialize();
      const auto payload = net::make_payload(ack.serialize());
      for (std::uint32_t j = 0; j < params_.m; ++j) {
        for (net::NodeId km : assign_.committees[j].key_members()) {
          net_->send_shared(self.id, km, net::Tag::kSemiCommitAck, payload);
        }
      }
      return;
    }
    return;
  }

  // Committee-scope instances: only the current leader acts on certs.
  if (self.id != committees_[scope].current_leader) return;
  const std::uint32_t k = scope;

  if (seq::is_intra(sn)) {
    // Intra-committee decision certified -> report to C_R (Alg. 5 l.19).
    auto it = self.lead.find(sn);
    if (it == self.lead.end()) return;
    wire::CertifiedResult result;
    result.payload = committees_[k].pending_intra_payload;
    result.cert = cert.serialize();
    const auto payload = net::make_payload(result.serialize());
    for (net::NodeId rm : assign_.referees) {
      net_->send_shared(self.id, rm, net::Tag::kIntraResult, payload);
    }
    self.sent_intra_result = true;
    return;
  }
  if (seq::is_score(sn)) {
    // ScoreList certified -> report to C_R (§IV-E).
    wire::CertifiedResult result;
    result.payload = committees_[k].pending_score_payload;
    result.cert = cert.serialize();
    const auto payload = net::make_payload(result.serialize());
    for (net::NodeId rm : assign_.referees) {
      net_->send_shared(self.id, rm, net::Tag::kScoreReport, payload);
    }
    return;
  }
  if (seq::is_utxo(sn)) {
    // Final UTXO list certified -> hand off to C_R, which forwards to the
    // next round's partial sets (§IV-G).
    Writer w;
    w.u32(k);
    w.bytes(crypto::digest_to_bytes(self.utxo->digest()));
    w.bytes(cert.serialize());
    const auto payload = net::make_payload(w.take());
    for (net::NodeId rm : assign_.referees) {
      net_->send_shared(self.id, rm, net::Tag::kUtxoHandoff, payload);
    }
    return;
  }
  if (seq::is_cross_out(sn)) {
    // Cross-out list certified -> send to destination leader and its
    // partial set (§IV-D; the hint enables the 2*Gamma rule of Lemma 7).
    const std::uint32_t dest = seq::cross_out_dest(sn);
    auto pit = committees_[k].pending_cross_out.find(dest);
    if (pit == committees_[k].pending_cross_out.end()) return;
    wire::CrossTxListMsg request =
        wire::CrossTxListMsg::deserialize(pit->second);
    request.origin_cert = cert.serialize();
    pit->second = request.serialize();
    const auto payload = net::make_payload(pit->second);
    const net::NodeId dest_leader = committees_[dest].current_leader;
    net_->send_shared(self.id, dest_leader, net::Tag::kCrossTxList, payload);
    for (net::NodeId pm : assign_.committees[dest].partial) {
      net_->send_shared(self.id, pm, net::Tag::kCrossPartialHint, payload);
    }
    return;
  }
  if (seq::is_cross_in(sn)) {
    // Acceptance certified -> reply to the origin leader and inform C_R.
    const std::uint32_t origin = seq::cross_in_origin(sn);
    auto rit = self.cross_in.find(origin);
    if (rit == self.cross_in.end()) return;
    wire::CrossResultMsg result;
    result.request = wire::CrossTxListMsg::deserialize(rit->second);
    result.dest_cert = cert.serialize();
    result.dest_members = committee_pks(k);
    const auto payload = net::make_payload(result.serialize());
    net_->send_shared(self.id, committees_[origin].current_leader,
                      net::Tag::kCrossResult, payload);
    for (net::NodeId rm : assign_.referees) {
      net_->send_shared(self.id, rm, net::Tag::kCrossResult, payload);
    }
    self.cross_done.insert(origin);
    return;
  }
}

}  // namespace cyc::protocol
