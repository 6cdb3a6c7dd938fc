// Engine part 2: phase drivers, the message dispatcher, block release,
// committee configuration (Alg. 2), Algorithm 3 plumbing and what each
// certificate triggers.
#include <algorithm>

#include "protocol/engine.hpp"
#include "protocol/payloads.hpp"
#include "protocol/sn_layout.hpp"
#include "crypto/pow.hpp"
#include "support/parallel.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {

// ---------------------------------------------------------------------------
// Phase drivers
// ---------------------------------------------------------------------------

void Engine::phase_config(net::Time at) {
  enter_phase(net::Phase::kCommitteeConfig, at);
  for (const CommitteeInfo& committee : assign_.committees) {
    const std::vector<net::NodeId> key_members = committee.key_members();
    // Key members seed their list S with the committee's key members
    // (addresses known from block B^{r-1}).
    for (net::NodeId id : key_members) {
      NodeState::Round& key_member = nodes_[id].round;
      for (net::NodeId peer : key_members) {
        if (key_member.known_pks.insert(nodes_[peer].keys.pk.y).second) {
          key_member.member_list.push_back(nodes_[peer].keys.pk);
        }
      }
    }
    // Non-key members run CRYPTO_SORT and register with the key members.
    for (net::NodeId id : committee.commons) {
      NodeState& common = nodes_[id];
      if (!common.is_active(round_)) continue;
      common.round.known_pks.insert(common.keys.pk.y);
      common.round.member_list.push_back(common.keys.pk);
      const wire::Intro intro{id, common.keys.pk, common.ticket};
      net_->multicast(id, key_members, net::Tag::kConfig, intro.serialize());
    }
  }
  // Restarted nodes spend the configuration phase asking the referees for
  // the current state digest instead of participating.
  for (auto& n : nodes_) {
    if (!n.catching_up) continue;
    n.catchup_attempts += 1;
    Writer w;
    w.u32(n.id);
    send_to_referees(n.id, net::Tag::kCatchUpRequest,
                     net::make_payload(w.take()));
  }
}

void Engine::phase_semicommit(net::Time at) {
  enter_phase(net::Phase::kSemiCommit, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_send_semicommit(nodes_[committees_[k].current_leader], k);
  }
  // Flush: each referee transmits the set of semi-commitments it accepted
  // to every key member, one batch per (referee, key member) (Alg. 4), so
  // a referee down still leaves |C_R| - 1 copies of each digest.
  // Commitments accepted later are relayed on their own (on_semicommit).
  const net::Time flush =
      at + 0.75 * params_.semicommit_duration * params_.delays.delta;
  net_->schedule(flush, [this](net::Time) {
    for (net::NodeId id : assign_.referees) {
      NodeState& referee = nodes_[id];
      if (!referee.is_active(round_)) continue;
      referee.round.semicommits_flushed = true;
      wire::SemiCommitBatch batch;
      referee.round.commitments.for_each(
          [&](std::uint32_t k, const crypto::Digest& commitment) {
            batch.entries.push_back({k, commitment});
          });
      if (!batch.entries.empty()) relay_semicommits(id, batch);
    }
  });
  // A silent leader is only impeachable once common members can
  // corroborate the silence (they never see SEMI_COM traffic), so the
  // timeout accusation for crashed leaders fires at the intra deadline.
}

void Engine::phase_intra(net::Time at) {
  enter_phase(net::Phase::kIntraConsensus, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_start_list(k, ListKind::kIntra, at);
  }
  const net::Time deadline =
      at + 0.7 * params_.intra_duration * params_.delays.delta;
  net_->schedule(deadline, [this](net::Time now) {
    if (!options_.recovery_enabled) return;
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      for (net::NodeId id : assign_.committees[k].partial) {
        NodeState& pm = nodes_[id];
        if (!pm.is_active(round_) || pm.misbehaves(round_)) continue;
        if (!pm.round.leader_sent_txlist && !committees_[k].leader_convicted) {
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
            !pm.round.accused_this_round) {
          Writer w;
          w.str("bogus-witness");
          begin_accusation(pm, k, WitnessKind::kEquivocation, w.take(), now);
        }
      }
    }
  });
}

void Engine::phase_inter(net::Time at) {
  enter_phase(net::Phase::kInterConsensus, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_start_list(k, ListKind::kCross, at);
  }
}

void Engine::phase_reputation(net::Time at) {
  enter_phase(net::Phase::kReputation, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_send_scores(k);
  }
}

void Engine::phase_selection(net::Time at) {
  enter_phase(net::Phase::kSelection, at);
  // Adopt the quorum-acked score reports before compute_selection reads
  // the effective reputations (finalize_round re-runs this for reports
  // whose quorum completed later in the round).
  adopt_quorum_scores();
  const Bytes challenge =
      concat({bytes_of("cyc.round"), be64(round_),
              crypto::digest_to_bytes(randomness_)});
  const std::uint64_t target = crypto::pow_target_for_bits(kPowBits);
  // The one pooled stage of the round (see "Execution model" in
  // src/protocol/README.md): the PoW search is its most expensive pure
  // computation (a bounded nonce scan per enrolled node), so it runs on
  // the pool; the solution sends run on the engine thread in node-id
  // order so delay-RNG draw order matches the sequential path.
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
    send_to_referees(solvers[i], net::Tag::kPowSolution,
                     net::make_payload(solutions[i]));
  }
  const net::Time when =
      at + 0.8 * params_.selection_duration * params_.delays.delta;
  net_->schedule(when, [this](net::Time) { compute_selection(); });
}

void Engine::phase_block(net::Time at) {
  enter_phase(net::Phase::kBlock, at);
  // B^r, assembled once: for k = 0..m-1, committee k's results that a
  // majority of referees acked, in block order (intra decision, then
  // cross results by origin); one stranded on a minority island of a
  // partitioned C_R is skipped. A tx id counts once, and the first spend
  // of an outpoint wins (§VIII-B: of two certified spends, "at least one
  // of them will be regarded as illegal").
  std::vector<ledger::Transaction> body;
  std::unordered_set<ledger::OutPoint, ledger::OutPointHash> spent;
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    for (const auto& [key, result] : committees_[k].results) {
      const auto [kind, origin] = key;
      if (kind == ResultKind::kScore) break;  // not block content
      if (!referee_quorum(result.acks)) continue;
      const bool cross = kind == ResultKind::kCross;
      const std::vector<ledger::Transaction> txs =
          cross ? wire::CrossResultMsg::deserialize(result.payload).request.txs
                : wire::IntraDecision::deserialize(result.payload).txdec_set;
      const std::size_t begin = body.size();
      for (const auto& tx : txs) {
        const ledger::TxId id = tx.id();
        if (!block_.settled.insert(id).second) continue;
        if (std::any_of(tx.inputs.begin(), tx.inputs.end(),
                        [&](const ledger::OutPoint& in) {
                          return spent.contains(in);
                        })) {
          block_.superseded.push_back(tx);
          arrival_times_.erase(id);  // will never commit (open loop only)
          continue;
        }
        spent.insert(tx.inputs.begin(), tx.inputs.end());
        body.push_back(tx);
      }
      block_.results.push_back({k, origin, cross, begin, body.size()});
    }
  }
  block_.block = ledger::Block::build(chain_.tip().round + 1,
                                      chain_.tip().hash(), next_randomness_,
                                      std::move(body));
  // The designated referee proposes B^r; C_R agrees via Algorithm 3; on
  // certification the block is released to everyone.
  const wire::BlockMsg proposal{round_, block_.block.txs, next_randomness_,
                                block_.block.header.body_root};
  leader_start_instance(nodes_[designated_referee(seq::kBlock)], params_.m,
                        seq::kBlock, proposal.serialize());
  // Committee leaders also certify their final UTXO list for hand-off to
  // the next round's partial sets (§IV-G).
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    NodeState& leader = nodes_[committees_[k].current_leader];
    if (!leader.is_active(round_)) continue;
    Writer w;
    w.str("UTXO_FINAL");
    w.u32(k);
    w.bytes(crypto::digest_to_bytes(leader.utxo->digest()));
    leader_start_instance(leader, k, seq::utxo(committees_[k].attempt),
                          w.take());
  }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

void Engine::dispatch(NodeState& self, const net::Message& msg,
                      net::Time now) {
  try {
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
    switch (msg.tag) {
      case net::Tag::kConfig: on_config(self, msg); break;
      case net::Tag::kMemberList: on_member_list(self, msg); break;
      case net::Tag::kMember: on_member(self, msg); break;
      case net::Tag::kPropose:
      case net::Tag::kEcho:
        on_consensus_msg(self, msg, now);
        break;
      case net::Tag::kConfirm: on_confirm(self, msg); break;
      case net::Tag::kSemiCommit: on_semicommit(self, msg, now); break;
      case net::Tag::kSemiCommitAck: on_semicommit_ack(self, msg); break;
      case net::Tag::kTxList: on_txlist(self, msg); break;
      case net::Tag::kVote: on_vote(self, msg); break;
      case net::Tag::kCrossTxList: on_cross_txlist(self, msg); break;
      case net::Tag::kCrossPartialHint: on_cross_hint(self, msg, now); break;
      case net::Tag::kCrossResult: on_cross_result(self, msg); break;
      case net::Tag::kScoreReport:
      case net::Tag::kIntraResult:
        on_committee_result(self, msg);
        break;
      case net::Tag::kAccuse: on_accuse(self, msg); break;
      case net::Tag::kImpeachVote: on_impeach_vote(self, msg); break;
      case net::Tag::kProsecute: on_prosecute(self, msg, now); break;
      case net::Tag::kNewLeader: on_new_leader(self, msg); break;
      case net::Tag::kPowSolution: {
        if (self.role != Role::kReferee) break;
        const auto& pow = msg.decoded<wire::PowMsg>();
        // Referees only register the current membership; a standby or
        // retired identity must re-enter through the epoch join puzzle.
        if (pow.node >= nodes_.size() || !nodes_[pow.node].enrolled) break;
        const Bytes challenge =
            concat({bytes_of("cyc.round"), be64(round_),
                    crypto::digest_to_bytes(randomness_), be64(pow.pk.y)});
        if (crypto::pow_verify(challenge,
                               crypto::pow_target_for_bits(kPowBits),
                               {pow.nonce, pow.digest})) {
          registered_.insert(pow.node);
        }
        break;
      }
      case net::Tag::kBlock:
      case net::Tag::kSubBlock:
        on_block(self, msg);
        break;
      case net::Tag::kBlockPermit: on_block_permit(self, msg); break;
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

void Engine::on_block_permit(NodeState& self, const net::Message& msg) {
  if (self.committee < 0 || !referee_seat(msg.from)) return;
  const std::uint32_t k = static_cast<std::uint32_t>(self.committee);
  if (self.id != committees_[k].current_leader) return;
  if (released_subblock(self.id)) return;  // once per round
  wire::BlockMsg sub;
  sub.round = round_;
  const auto& txs = block_.block.txs;
  for (const auto& result : block_.results) {
    if (result.committee != k) continue;
    sub.txs.insert(sub.txs.end(), txs.begin() + result.begin,
                   txs.begin() + result.end);
  }
  if (sub.txs.empty()) return;
  sub.randomness = next_randomness_;
  released_subblocks_.push_back({k, sub.txs, self.id});
  const net::Message release{self.id, self.id, net::Tag::kSubBlock,
                             net::make_payload(sub.serialize())};
  send_to_all(self.id, release.tag, release.body);
  // send_to_all skips the sender: the leader adopts its own sub-block
  // through the receivers' path, sharing their decode and successors.
  on_block(self, release);
}

void Engine::on_block(NodeState& self, const net::Message& msg) {
  // Members refresh their shard view from the released (sub-)block.
  if (self.committee < 0) return;
  if (msg.tag == net::Tag::kBlock ? !referee_seat(msg.from)
                                  : !released_subblock(msg.from)) {
    return;
  }
  ReleasedBlock& released =
      msg.decoded<ReleasedBlock>([this](BytesView payload) {
        auto block = wire::BlockMsg::deserialize(payload);
        return ReleasedBlock{
            block.round,
            ledger::RoutedBlock(std::move(block.txs), *shard_map_), {}};
      });
  // A (sub-)block of another round is stale: SimNet carries late
  // deliveries across rounds, and a replay must not move a view.
  if (released.round != round_) return;
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
  const auto& intro = msg.decoded<wire::Intro>();
  // The reply goes to the sender itself, never to an address it names.
  if (intro.node != msg.from) return;
  if (intro.ticket.committee != static_cast<std::uint32_t>(self.committee)) {
    return;
  }
  if (!verify_sortition(intro.pk, round_, randomness_, params_.m,
                        intro.ticket)) {
    return;
  }
  // Respond with the current list, then register the newcomer.
  wire::MemberListMsg list;
  for (const auto& pk : self.round.member_list) {
    const net::NodeId nid = node_of_pk(pk);
    list.nodes.push_back(nid);
    list.pks.push_back(pk);
  }
  net_->send(self.id, intro.node, net::Tag::kMemberList, list.serialize());
  if (self.round.known_pks.insert(intro.pk.y).second) {
    self.round.member_list.push_back(intro.pk);
  }
}

void Engine::on_member_list(NodeState& self, const net::Message& msg) {
  // A list only ever answers this node's own CONFIG, which a round-start
  // common member sends to its committee's round-start key members.
  if (self.committee < 0) return;
  const CommitteeInfo& committee = assign_.committees[self.committee];
  const auto& commons = committee.commons;
  if (std::find(commons.begin(), commons.end(), self.id) == commons.end()) {
    return;
  }
  if (msg.from != committee.leader &&
      std::find(committee.partial.begin(), committee.partial.end(),
                msg.from) == committee.partial.end()) {
    return;
  }
  const auto& list = msg.decoded<wire::MemberListMsg>();
  std::vector<net::NodeId> fresh;
  for (std::size_t i = 0; i < list.pks.size(); ++i) {
    if (self.round.known_pks.insert(list.pks[i].y).second) {
      self.round.member_list.push_back(list.pks[i]);
      fresh.push_back(list.nodes[i]);
    }
  }
  // Introduce ourselves to previously unconnected members on the list.
  wire::Intro intro{self.id, self.keys.pk, self.ticket};
  net_->multicast(self.id, fresh, net::Tag::kMember, intro.serialize());
}

void Engine::on_member(NodeState& self, const net::Message& msg) {
  const auto& intro = msg.decoded<wire::Intro>();
  if (intro.ticket.committee != static_cast<std::uint32_t>(self.committee)) {
    return;
  }
  if (!verify_sortition(intro.pk, round_, randomness_, params_.m,
                        intro.ticket)) {
    return;
  }
  if (self.round.known_pks.insert(intro.pk.y).second) {
    self.round.member_list.push_back(intro.pk);
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
  auto [it, inserted] = self.round.lead.try_emplace(
      sn, consensus::LeaderInstance(self.keys, iid, std::move(message),
                                    roster(scope)));
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
  auto [mit, minserted] = self.round.member.try_emplace(
      sn, self.keys, self.id, iid, self.keys.pk, roster(scope));
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
    if (self.role == Role::kPartial && !self.round.accused_this_round) {
      begin_accusation(self, scope, WitnessKind::kEquivocation,
                       out.witness->serialize(), now);
    }
    return;
  }
  // Our own echo is already counted by the member instance that made it.
  if (out.echo_broadcast) {
    send_consensus(self.id, instance_peers(scope), net::Tag::kEcho, scope, sn,
                   out.echo_broadcast->serialize());
  }
  if (out.confirm_to_leader) {
    const crypto::PublicKey leader_pk = expected_instance_leader(scope, sn);
    const net::NodeId leader_id = node_of_pk(leader_pk);
    if (leader_id == self.id) {
      auto lit = self.round.lead.find(sn);
      if (lit != self.round.lead.end()) {
        if (auto cert = lit->second.on_confirm(*out.confirm_to_leader)) {
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
  const bool propose = msg.tag == net::Tag::kPropose;
  const ConsensusFanout& fan =
      msg.decoded<ConsensusFanout>([propose](BytesView payload) {
        const auto env = wire::ConsensusEnvelope::deserialize(payload);
        ConsensusFanout fan{env.scope, env.sn, {}, {}};
        if (propose) {
          fan.propose.emplace(consensus::ProposeWire::deserialize(env.wire));
        } else {
          fan.echo.emplace(consensus::EchoWire::deserialize(env.wire));
        }
        return fan;
      });
  // One buffer is one message: re-sent under the other tag, dropped.
  if (propose ? !fan.propose : !fan.echo) return;
  const std::uint32_t scope = fan.scope;
  const std::uint64_t sn = fan.sn;
  if (!in_scope(self, scope)) return;

  auto it = self.round.member.find(sn);
  if (it == self.round.member.end()) {
    it = self.round.member
             .try_emplace(sn, self.keys, self.id,
                          consensus::InstanceId{round_, sn},
                          expected_instance_leader(scope, sn),
                          roster(scope))
             .first;
  }
  consensus::MemberOutput out;
  if (propose) {
    // Track leader engagement for the 2*Gamma concealment rule.
    if (scope < params_.m && seq::is_cross_in(sn)) {
      self.round.cross_seen_propose.insert(seq::cross_in_origin(sn));
    }
    out = it->second.on_propose(*fan.propose);
  } else {
    out = it->second.on_echo(*fan.echo);
  }
  process_member_output(self, scope, sn, std::move(out), now);
}

void Engine::on_confirm(NodeState& self, const net::Message& msg) {
  // Unicast to one leader: the wire is decoded where an instance awaits it.
  const auto& env = msg.decoded<wire::ConsensusEnvelope>();
  if (!in_scope(self, env.scope)) return;
  auto it = self.round.lead.find(env.sn);
  if (it == self.round.lead.end()) return;
  if (auto cert =
          it->second.on_confirm(consensus::ConfirmWire::deserialize(env.wire))) {
    on_cert(self, env.scope, env.sn, *cert);
  }
}

// ---------------------------------------------------------------------------
// Certificates: what each agreed instance triggers
// ---------------------------------------------------------------------------

void Engine::on_cert(NodeState& self, std::uint32_t scope, std::uint64_t sn,
                     const consensus::QuorumCert& cert) {
  // Only the instance's leader runs this handler, and LeaderInstance
  // yields its certificate once; members bind each sn to one leader per
  // round, so each (scope, sn) forms one certificate per round.
  self.round.certs[sn] = cert;
  emit(obs::Event::kQcFormed, net_->now(), scope, scope, sn,
       cert.confirms.size());
  // Every caller holds the instance it certified.
  const Bytes& message = self.round.lead.at(sn).message();
  if (scope == params_.m) {
    // Referee-scope instances.
    if (sn == seq::kBlock) {
      // Block certified.
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
      send_to_all(self.id, net::Tag::kBlock, net::make_payload(message));
      return;
    }
    if (seq::is_reselect(sn)) {
      // Leader re-selection agreed: announce the new leader.
      announce_new_leader(self, seq::reselect_committee(sn));
      return;
    }
    // A certified SEMI_CHECK needs no relay: the referees' batches
    // already carry every accepted digest to the key members.
    return;
  }

  // Committee-scope instances: only the current leader acts on certs.
  if (self.id != committees_[scope].current_leader) return;
  const std::uint32_t k = scope;

  if (seq::is_intra(sn) || seq::is_score(sn)) {
    // Intra-committee decision (Alg. 5 l.19) or ScoreList (§IV-E)
    // certified -> report to C_R.
    const wire::CertifiedResult result{message, cert.serialize()};
    send_to_referees(self.id,
                     seq::is_intra(sn) ? net::Tag::kIntraResult
                                       : net::Tag::kScoreReport,
                     net::make_payload(result.serialize()));
    return;
  }
  if (seq::is_utxo(sn)) {
    // Final UTXO list certified -> hand off to C_R, which forwards to the
    // next round's partial sets (§IV-G).
    Writer w;
    w.u32(k);
    w.bytes(crypto::digest_to_bytes(self.utxo->digest()));
    w.bytes(cert.serialize());
    send_to_referees(self.id, net::Tag::kUtxoHandoff,
                     net::make_payload(w.take()));
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
    net_->multicast_shared(self.id, assign_.committees[dest].partial,
                           net::Tag::kCrossPartialHint, payload);
    return;
  }
  if (seq::is_cross_in(sn)) {
    // Acceptance certified -> reply to the origin leader and inform C_R.
    const std::uint32_t origin = seq::cross_in_origin(sn);
    auto& duties = committees_[k].duties;
    auto rit = duties.cross_in.find(origin);
    if (rit == duties.cross_in.end()) return;
    wire::CrossResultMsg result;
    result.request = wire::CrossTxListMsg::deserialize(rit->second);
    result.dest_cert = cert.serialize();
    result.dest_members = roster(k);
    const auto payload = net::make_payload(result.serialize());
    net_->send_shared(self.id, committees_[origin].current_leader,
                      net::Tag::kCrossResult, payload);
    send_to_referees(self.id, net::Tag::kCrossResult, payload);
    duties.cross_done.insert(origin);
    return;
  }
}

}  // namespace cyc::protocol
