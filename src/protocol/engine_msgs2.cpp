// Engine part 3: semi-commitment, voting, cross-shard flows, reputation
// reporting and the recovery procedure (Alg. 6).
#include <algorithm>
#include <unordered_set>

#include "protocol/engine.hpp"
#include "protocol/payloads.hpp"
#include "protocol/sn_layout.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {

namespace {
crypto::Digest vlist_digest(const std::map<net::NodeId, VoteVector>& votes) {
  Writer w;
  for (const auto& [id, vote] : votes) {
    w.u32(id);
    w.bytes(wire::encode_vote_vec(vote));
  }
  return crypto::sha256(w.out());
}

/// Whether `cert_bytes` is a quorum certificate over `payload` signed by
/// more than half of `members`. Malformed certificate bytes fail.
bool certifies(BytesView cert_bytes, BytesView payload,
               const std::vector<crypto::PublicKey>& members) {
  try {
    const auto cert = consensus::QuorumCert::deserialize(cert_bytes);
    return cert.digest == crypto::sha256(payload) &&
           cert.verify(members, members.size());
  } catch (const std::exception&) {
    return false;
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Semi-commitment exchange (Alg. 4)
// ---------------------------------------------------------------------------

void Engine::leader_send_semicommit(NodeState& leader, std::uint32_t k) {
  if (!leader.is_active(round_)) return;
  const std::vector<crypto::PublicKey>& list = leader.round.member_list;

  crypto::Digest commitment = semi_commitment(list);
  if (leader.misbehaves(round_) &&
      leader.behavior == Behavior::kCommitForger && list.size() > 1) {
    // Commit to a forged list (one member dropped): binding (Lemma 1)
    // guarantees H(S) != H(S') so every honest checker sees the mismatch.
    std::vector<crypto::PublicKey> forged(list.begin(), list.end() - 1);
    commitment = semi_commitment(forged);
  }

  wire::SemiCommitMsg msg;
  msg.committee = k;
  msg.commitment_msg = crypto::make_signed(
      leader.keys, commitment_payload(round_, k, commitment));
  msg.list_msg =
      crypto::make_signed(leader.keys, member_list_payload(round_, k, list));
  const auto payload = net::make_payload(msg.serialize());
  send_to_referees(leader.id, net::Tag::kSemiCommit, payload);
  net_->multicast_shared(leader.id, assign_.committees[k].partial,
                         net::Tag::kSemiCommit, payload);
}

void Engine::on_semicommit(NodeState& self, const net::Message& msg,
                           net::Time now) {
  const auto& sc = msg.decoded<wire::SemiCommitMsg>();
  const std::uint32_t k = sc.committee;
  if (k >= params_.m) return;
  const crypto::PublicKey leader_pk = nodes_[committees_[k].current_leader].keys.pk;
  if (!(sc.commitment_msg.signer == leader_pk) || !sc.commitment_msg.valid() ||
      !(sc.list_msg.signer == leader_pk) || !sc.list_msg.valid()) {
    return;
  }
  const auto members = parse_member_list_payload(sc.list_msg.payload);
  const auto commitment = parse_commitment_payload(sc.commitment_msg.payload);

  if (self.role == Role::kReferee) {
    // i) all members registered; ii) the commitment is valid.
    for (const auto& pk : members) {
      if (!pk_index_.contains(pk.y)) return;
    }
    if (!verify_semi_commitment(commitment, members)) {
      // Forged commitment: the leader signed both halves of the
      // contradiction, so this is a transferable witness (§V-D).
      // Only the referee designated to drive the re-selection instance
      // convicts (every honest referee sees the same contradiction).
      const std::uint64_t sn = seq::reselect(k, committees_[k].attempt);
      if (options_.recovery_enabled && !committees_[k].leader_convicted &&
          designated_referee(sn) == self.id) {
        CommitmentMismatchWitness witness{sc.list_msg, sc.commitment_msg};
        Accusation accusation;
        accusation.round = round_;
        accusation.committee = k;
        accusation.accused = leader_pk;
        accusation.accuser = self.keys.pk;
        accusation.kind = WitnessKind::kCommitMismatch;
        accusation.witness = witness.serialize();
        referee_convict(self, accusation, now, {});
      }
      return;
    }
    self.round.commitments.set(k, commitment);
    self.round.lists.set(k, members);
    // Accepted before the flush, the commitment travels in this referee's
    // batch (phase_semicommit); after it — a recovered leader's fresh
    // commitment (§V-D) — it is relayed on its own right away.
    if (self.round.semicommits_flushed) {
      relay_semicommits(self.id, wire::SemiCommitBatch{{{k, commitment}}});
    }
    // The designated referee additionally drives the C_R agreement on
    // this commitment (each referee "is regarded as the leader", §IV-B).
    const std::uint64_t sn = seq::semi_check(k);
    if (designated_referee(sn) == self.id) {
      Writer w;
      w.str("SEMI_CHECK");
      w.u32(k);
      w.bytes(crypto::digest_to_bytes(commitment));
      leader_start_instance(self, params_.m, sn, w.take());
    }
    return;
  }

  if (self.role == Role::kPartial && self.committee == static_cast<std::int64_t>(k)) {
    // Verify: the commitment matches the list, and the list S is no
    // smaller than the set we locally maintain (Alg. 4 step 3).
    bool mismatch = !verify_semi_commitment(commitment, members);
    if (!mismatch) {
      std::set<std::uint64_t> claimed;
      for (const auto& pk : members) claimed.insert(pk.y);
      for (const auto& pk : self.round.member_list) {
        if (!claimed.contains(pk.y)) {
          mismatch = true;  // leader omitted a registered member
          break;
        }
      }
    }
    if (mismatch && options_.recovery_enabled && !self.misbehaves(round_) &&
        !self.round.accused_this_round && !committees_[k].leader_convicted) {
      CommitmentMismatchWitness witness{sc.list_msg, sc.commitment_msg};
      begin_accusation(self, k, WitnessKind::kCommitMismatch,
                       witness.serialize(), now);
    }
  }
}

void Engine::relay_semicommits(net::NodeId referee,
                               const wire::SemiCommitBatch& batch) {
  const auto payload = net::make_payload(batch.serialize());
  for (const CommitteeInfo& committee : assign_.committees) {
    net_->multicast_shared(referee, committee.key_members(),
                           net::Tag::kSemiCommitAck, payload);
  }
}

void Engine::on_semicommit_ack(NodeState& self, const net::Message& msg) {
  // Only current referee seats relay semi-commitments.
  if (!referee_seat(msg.from)) return;
  const auto& batch = msg.decoded<wire::SemiCommitBatch>();
  for (const wire::SemiCommitAck& ack : batch.entries) {
    if (ack.committee < params_.m) {
      self.round.commitments.set(ack.committee, ack.commitment);
    }
  }
}

// ---------------------------------------------------------------------------
// Voting (Alg. 5 member side) and tallies
// ---------------------------------------------------------------------------

VoteVector Engine::compute_vote(NodeState& self,
                                const std::vector<ledger::Transaction>& txs) {
  VoteVector vote(txs.size(), Vote::kUnknown);
  if (self.misbehaves(round_)) {
    switch (self.behavior) {
      case Behavior::kRandomVoter: {
        rng::Stream vote_rng =
            rng_.fork("random-voter").fork(self.id).fork(round_);
        for (auto& v : vote) {
          v = static_cast<Vote>(static_cast<int>(vote_rng.below(3)) - 1);
        }
        return vote;
      }
      case Behavior::kLazyVoter:
        return vote;  // all Unknown
      case Behavior::kInverseVoter:
      case Behavior::kFramer: {
        for (std::size_t i = 0; i < txs.size(); ++i) {
          vote[i] = ledger::V(txs[i], *self.utxo) ? Vote::kNo : Vote::kYes;
        }
        return vote;
      }
      default:
        break;  // leader-only misbehaviours vote honestly as members
    }
  }
  // Honest: intra-list double spends are cheap to spot (no crypto), so
  // every honest member flags the later of two conflicting transactions
  // regardless of capacity — "at least one of them will be regarded as
  // illegal" (§VIII-B).
  std::vector<bool> conflicted(txs.size(), false);
  {
    std::unordered_set<ledger::OutPoint, ledger::OutPointHash> seen;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      for (const auto& in : txs[i].inputs) {
        if (!seen.insert(in).second) conflicted[i] = true;
      }
    }
  }
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (conflicted[i]) vote[i] = Vote::kNo;
  }
  // Judge up to `capacity` transactions within the time limit, vote
  // Unknown on the rest (§IV-C step 3). Each node picks its own subset
  // of the list to verify, so the committee's aggregate coverage spreads
  // over the whole list rather than piling onto a prefix.
  const std::size_t judged =
      std::min<std::size_t>(txs.size(), self.capacity);
  std::vector<std::size_t> order(txs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng::Stream pick = rng_.fork("judge-order").fork(self.id).fork(round_);
  rng::shuffle(order, pick);
  for (std::size_t j = 0; j < judged; ++j) {
    const std::size_t i = order[j];
    if (conflicted[i]) continue;  // already voted No above
    vote[i] = ledger::V(txs[i], *self.utxo) ? Vote::kYes : Vote::kNo;
  }
  return vote;
}

void Engine::VoteTally::decide(std::size_t dimension,
                               std::size_t committee_size) {
  decision.assign(dimension, Vote::kNo);
  for (std::size_t i = 0; i < dimension; ++i) {
    std::size_t yes = 0;
    for (const auto& [id, vote] : votes) {
      if (i < vote.size() && vote[i] == Vote::kYes) ++yes;
    }
    decision[i] = (yes * 2 > committee_size) ? Vote::kYes : Vote::kNo;
  }
}

void Engine::leader_start_list(std::uint32_t k, ListKind kind, net::Time now) {
  NodeState& leader = nodes_[committees_[k].current_leader];
  if (!leader.is_active(round_)) return;
  auto& txs = committees_[k].list(kind);
  // The intra list is agreed even when empty (its certified decision is
  // the committee's output); an empty cross list has nothing to agree on.
  if (kind == ListKind::kCross && txs.empty()) return;
  if (kind == ListKind::kCross && options_.extension_precommunication) {
    // §VIII-A: enquire the destination leaders about candidate validity
    // before packaging, then drop transactions the pre-check rejects —
    // invalid traffic never reaches the two-committee consensus.
    std::set<std::uint32_t> dests;
    for (const auto& tx : txs) {
      for (std::uint32_t shard : ledger::output_shards(tx, *shard_map_)) {
        if (shard != k) dests.insert(shard);
      }
    }
    for (std::uint32_t dest : dests) {
      const net::NodeId peer = committees_[dest].current_leader;
      net_->send(leader.id, peer, net::Tag::kPreCommQuery, Bytes(48, 0));
      net_->send(peer, leader.id, net::Tag::kPreCommReply, Bytes(16, 0));
    }
    std::vector<ledger::Transaction> filtered;
    for (const auto& tx : txs) {
      if (ledger::V(tx, *leader.utxo)) filtered.push_back(tx);
    }
    txs = std::move(filtered);
    if (txs.empty()) return;
  }
  wire::TxListMsg msg;
  msg.committee = k;
  msg.attempt = committees_[k].attempt;
  msg.cross = kind == ListKind::kCross;
  msg.signed_list = crypto::make_signed(leader.keys, wire::encode_tx_vec(txs));
  net_->multicast(leader.id, committee_members(k), net::Tag::kTxList,
                  msg.serialize());
  // The leader votes too (it is a member of the committee).
  auto& votes = committees_[k].tally(kind).votes;
  votes.clear();
  votes[leader.id] = compute_vote(leader, txs);

  // Collection window (the paper suggests 6 Delta): tally, agree, report.
  const std::uint32_t attempt = committees_[k].attempt;
  net_->schedule(now + 8.0 * params_.delays.delta,
                 [this, k, kind, attempt](net::Time) {
    CommitteeRound& committee = committees_[k];
    if (committee.attempt != attempt) return;  // superseded by recovery
    NodeState& leader = nodes_[committee.current_leader];
    if (!leader.is_active(round_)) return;
    VoteTally& tally = committee.tally(kind);
    leader_flush_votes(tally);
    const auto& txs = committee.list(kind);
    tally.decide(txs.size(), assign_.committees[k].size());

    if (kind == ListKind::kIntra) {
      wire::IntraDecision decision;
      decision.committee = k;
      decision.attempt = attempt;
      for (std::size_t i = 0; i < txs.size(); ++i) {
        if (tally.decision[i] == Vote::kYes) {
          decision.txdec_set.push_back(txs[i]);
        }
      }
      decision.vlist_digest = vlist_digest(tally.votes);
      leader_start_instance(leader, k, seq::intra(attempt),
                            decision.serialize());
      return;
    }
    // Partition the accepted cross transactions by destination shard and
    // run one Alg. 3 instance per destination.
    std::map<std::uint32_t, std::vector<ledger::Transaction>> by_dest;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      if (tally.decision[i] != Vote::kYes) continue;
      for (std::uint32_t shard : ledger::output_shards(txs[i], *shard_map_)) {
        if (shard != k) {
          by_dest[shard].push_back(txs[i]);
          break;  // route via the first foreign shard
        }
      }
    }
    for (auto& [dest, dest_txs] : by_dest) {
      wire::CrossTxListMsg request;
      request.origin = k;
      request.dest = dest;
      request.attempt = attempt;
      request.txs = dest_txs;
      request.origin_members = leader.round.member_list;
      // The origin cert is attached in on_cert once Alg. 3 completes;
      // store the request now.
      committee.pending_cross_out[dest] = request.serialize();
      leader_start_instance(leader, k, seq::cross_out(dest, attempt),
                            request.agreed_payload());
    }
  });
}


void Engine::on_txlist(NodeState& self, const net::Message& msg) {
  const auto& [list, txs] =
      msg.decoded<ReceivedTxList>([](BytesView payload) {
        auto list = wire::TxListMsg::deserialize(payload);
        auto txs = wire::decode_tx_vec(list.signed_list.payload);
        return ReceivedTxList{std::move(list), std::move(txs)};
      });
  if (self.committee != static_cast<std::int64_t>(list.committee)) return;
  const crypto::PublicKey leader_pk =
      nodes_[committees_[list.committee].current_leader].keys.pk;
  if (!(list.signed_list.signer == leader_pk) || !list.signed_list.valid()) {
    return;
  }
  self.round.leader_sent_txlist = true;
  if (self.id == committees_[list.committee].current_leader) return;

  wire::VoteMsg reply;
  reply.committee = list.committee;
  reply.attempt = list.attempt;
  reply.cross = list.cross;
  reply.signed_vote =
      crypto::make_signed(self.keys, wire::encode_vote_vec(compute_vote(self, txs)));
  net_->send(self.id, committees_[list.committee].current_leader,
             net::Tag::kVote, reply.serialize());
}

void Engine::on_vote(NodeState& self, const net::Message& msg) {
  const auto& vote = msg.decoded<wire::VoteMsg>();
  if (vote.committee >= params_.m) return;
  CommitteeRound& committee = committees_[vote.committee];
  if (self.id != committee.current_leader) return;
  if (vote.attempt != committee.attempt) return;
  const net::NodeId voter = node_of_pk(vote.signed_vote.signer);
  if (voter == net::kNoNode) return;
  if (!assign_.committees[vote.committee].contains(voter)) return;
  // Park the signed vote; signatures are batch-verified at tally time
  // (leader_flush_votes) instead of one Schnorr check per arrival.
  committee.tally(vote.cross ? ListKind::kCross : ListKind::kIntra)
      .pending[voter]
      .push_back(vote.signed_vote);
}

void Engine::leader_flush_votes(VoteTally& tally) {
  if (tally.pending.empty()) return;
  std::vector<const crypto::SignedMessage*> batch;
  for (const auto& [voter, arrivals] : tally.pending) {
    for (const auto& sm : arrivals) batch.push_back(&sm);
  }
  // One aggregate check for the common all-valid case; either way the
  // per-message verdicts land in the cache, so the valid() calls below
  // are hits.
  crypto::verify_batch(batch);
  emit(obs::Event::kVotesFlushed, net_->now(), obs::kNoCommittee,
       batch.size());
  for (const auto& [voter, arrivals] : tally.pending) {
    // Last valid arrival wins — identical to the old scheme where each
    // arriving vote was verified immediately and valid ones overwrote.
    for (const auto& sm : arrivals) {
      if (sm.valid()) tally.votes[voter] = wire::decode_vote_vec(sm.payload);
    }
  }
  tally.pending.clear();
}

// ---------------------------------------------------------------------------
// Inter-committee consensus (§IV-D)
// ---------------------------------------------------------------------------

void Engine::leader_handle_cross_in(NodeState& leader,
                                    const wire::CrossTxListMsg& req,
                                    const Bytes& request) {
  const std::uint32_t k = static_cast<std::uint32_t>(leader.committee);
  if (req.dest != k) return;
  auto& duties = committees_[k].duties;
  if (duties.cross_done.contains(req.origin) ||
      duties.cross_in.contains(req.origin)) {
    return;
  }
  // Verify the origin committee's certificate against its
  // semi-commitment: a faulty origin leader cannot fabricate a consensus
  // result (§IV-D).
  const crypto::Digest* commitment = leader.round.commitments.find(req.origin);
  if (commitment == nullptr) return;
  if (!verify_semi_commitment(*commitment, req.origin_members)) return;
  if (!certifies(req.origin_cert, req.agreed_payload(), req.origin_members)) {
    return;
  }

  duties.cross_in[req.origin] = request;

  // Reach committee agreement on the acceptance (the C_j side of §IV-D).
  wire::CrossResultMsg result;
  result.request = req;
  leader_start_instance(leader, k, seq::cross_in(req.origin, req.attempt),
                        result.acceptance_payload());
}

void Engine::on_cross_txlist(NodeState& self, const net::Message& msg) {
  if (self.committee < 0) return;
  const std::uint32_t k = static_cast<std::uint32_t>(self.committee);
  if (self.id != committees_[k].current_leader) return;
  if (self.misbehaves(round_) && self.behavior == Behavior::kConcealer) {
    return;  // conceals the request from its committee (Lemma 6 scenario)
  }
  if (self.misbehaves(round_) && self.behavior == Behavior::kImitator) {
    // The "imitate" half of Lemma 6: fabricate an acceptance without
    // running committee consensus. The forged certificate cannot carry
    // >C/2 member signatures, so origin leader and referees reject it;
    // the partial set's 2*Gamma rule then evicts the imitator.
    const auto& req = msg.decoded<wire::CrossTxListMsg>();
    if (req.origin >= params_.m) return;
    wire::CrossResultMsg forged;
    forged.request = req;
    consensus::QuorumCert fake;
    fake.id = {round_, 0};
    fake.digest = crypto::sha256(forged.acceptance_payload());
    fake.confirms.push_back(
        crypto::make_signed(self.keys, bytes_of("not-a-confirm")));
    forged.dest_cert = fake.serialize();
    forged.dest_members = roster(k);
    const auto payload = net::make_payload(forged.serialize());
    net_->send_shared(self.id, committees_[req.origin].current_leader,
                      net::Tag::kCrossResult, payload);
    send_to_referees(self.id, net::Tag::kCrossResult, payload);
    return;
  }
  leader_handle_cross_in(self, msg.decoded<wire::CrossTxListMsg>(),
                         msg.payload());
}

void Engine::on_cross_hint(NodeState& self, const net::Message& msg,
                           net::Time now) {
  if (self.role != Role::kPartial || self.committee < 0) return;
  const auto& req = msg.decoded<wire::CrossTxListMsg>();
  const std::uint32_t k = static_cast<std::uint32_t>(self.committee);
  if (req.dest != k) return;
  if (self.round.cross_hints.contains(req.origin)) return;
  self.round.cross_hints[req.origin] = msg.payload();

  // Lemma 7: if after 2*Gamma the leader has not engaged the consensus on
  // this origin's list, forward it and (if still silent) accuse.
  const std::uint32_t origin = req.origin;
  net_->schedule(now + 2.0 * params_.delays.gamma,
                 [this, id = self.id, k, origin](net::Time later) {
    NodeState& pm = nodes_[id];
    if (!pm.is_active(round_) || pm.misbehaves(round_)) return;
    if (pm.round.cross_seen_propose.contains(origin)) return;  // leader engaged
    if (committees_[k].leader_convicted) return;
    // First forward the set to the leader (an honest-but-slow leader can
    // still proceed)...
    net_->send(id, committees_[k].current_leader, net::Tag::kCrossTxList,
               pm.round.cross_hints[origin]);
    // ...then check again after another 2*Gamma and accuse if ignored.
    net_->schedule(later + 2.0 * params_.delays.gamma,
                   [this, id, k, origin](net::Time final_time) {
      NodeState& pm = nodes_[id];
      if (!pm.is_active(round_) || pm.misbehaves(round_)) return;
      if (pm.round.cross_seen_propose.contains(origin)) return;
      if (committees_[k].leader_convicted || pm.round.accused_this_round) {
        return;
      }
      if (!options_.recovery_enabled) return;
      begin_accusation(pm, k, WitnessKind::kTimeout,
                       pm.round.cross_hints[origin], final_time);
    });
  });
}

void Engine::on_cross_result(NodeState& self, const net::Message& msg) {
  // Referees record the doubly-certified cross list for the block.
  if (self.role != Role::kReferee) return;
  const auto& result = msg.decoded<wire::CrossResultMsg>();
  const std::uint32_t dest = result.request.dest;
  const std::uint32_t origin = result.request.origin;
  if (dest >= params_.m || origin >= params_.m) return;
  const ResultKey key{ResultKind::kCross, origin};
  if (committees_[dest].acked_by(key, self.id)) return;

  // Check both certificates against both semi-commitments.
  const crypto::Digest* oc = self.round.commitments.find(origin);
  const crypto::Digest* dc = self.round.commitments.find(dest);
  if (oc == nullptr || dc == nullptr) return;
  if (!verify_semi_commitment(*oc, result.request.origin_members)) return;
  if (!verify_semi_commitment(*dc, result.dest_members)) return;
  if (!certifies(result.request.origin_cert, result.request.agreed_payload(),
                 result.request.origin_members) ||
      !certifies(result.dest_cert, result.acceptance_payload(),
                 result.dest_members)) {
    return;
  }
  committees_[dest].store_and_ack(key, msg.payload(), self.id);
}

// ---------------------------------------------------------------------------
// Results reaching the referee committee
// ---------------------------------------------------------------------------

void Engine::on_committee_result(NodeState& self, const net::Message& msg) {
  // Every referee verifies the certificate independently and acks the
  // stored bytes; the result is only *used* once a majority acked (the
  // quorum gate in phase_block / finalize_round, and adopt_quorum_scores
  // at the start of the selection phase). A duplicate delivery cannot
  // double-ack (acks are keyed by referee id), and a partitioned minority
  // of C_R can never push a result into the block alone.
  if (self.role != Role::kReferee) return;
  const bool scores = msg.tag == net::Tag::kScoreReport;
  const auto& [result, decoded_scores, k] =
      msg.decoded<ReceivedResult>([scores](BytesView payload) {
        auto result = wire::CertifiedResult::deserialize(payload);
        const std::uint32_t k =
            scores ? wire::ScoreListMsg::deserialize(result.payload).committee
                   : wire::IntraDecision::deserialize(result.payload).committee;
        return ReceivedResult{std::move(result), scores, k};
      });
  if (decoded_scores != scores || k >= params_.m) return;
  const ResultKey key{scores ? ResultKind::kScore : ResultKind::kIntra, k};
  if (committees_[k].acked_by(key, self.id)) return;
  const auto* members = self.round.lists.find(k);
  if (members == nullptr) return;
  if (!certifies(result.cert, result.payload, *members)) return;
  committees_[k].store_and_ack(key, result.payload, self.id);
}

// ---------------------------------------------------------------------------
// Crash-recovery catch-up (restart())
// ---------------------------------------------------------------------------

void Engine::on_catchup_request(NodeState& self, const net::Message& msg) {
  // Only active referee seats serve state; anyone else ignores the ask.
  if (self.role != Role::kReferee || !self.is_active(round_)) return;
  Reader r(msg.payload());
  const net::NodeId who = r.u32();
  if (who >= nodes_.size() || who != msg.from) return;
  crypto::Digest digest = catchup_state_digest(chain_.tip().hash(),
                                               shard_state_);
  if (self.misbehaves(round_)) {
    // A corrupted referee vouches for a forged state; the restarted
    // node's majority tally must reject it.
    digest = crypto::sha256_concat(
        {bytes_of("cyc.catchup.forged"), be64(self.id)});
  }
  Writer w;
  w.bytes(crypto::digest_to_bytes(digest));
  net_->send(self.id, who, net::Tag::kCatchUpReply, w.take());
}

void Engine::on_catchup_reply(NodeState& self, const net::Message& msg) {
  if (!self.catching_up || self.catchup_adopted) return;
  // Only current referee seats may vouch for state.
  if (!referee_seat(msg.from)) return;
  Reader r(msg.payload());
  const crypto::Digest digest = crypto::digest_from_bytes(r.bytes());
  // Tally by digest, keyed by distinct signer: duplicated deliveries of
  // one referee's reply can never fake a majority.
  auto& backers = self.catchup_tally[digest];
  backers.insert(msg.from);
  if (backers.size() * 2 <= assign_.referees.size()) return;
  self.catchup_adopted = true;
  self.adopted_digest = digest;
  CatchUpRecord record;
  record.node = self.id;
  record.round = round_;
  record.attempt = self.catchup_attempts;
  record.confirms = backers.size();
  record.success = true;
  record.adopted_digest = self.adopted_digest;
  catchup_log_.push_back(record);
  emit(obs::Event::kCatchupAdopted, net_->now(), obs::kNoCommittee, self.id,
       record.confirms);
}

// ---------------------------------------------------------------------------
// Reputation (§IV-E)
// ---------------------------------------------------------------------------

void Engine::leader_send_scores(std::uint32_t k) {
  CommitteeRound& committee = committees_[k];
  NodeState& leader = nodes_[committee.current_leader];
  if (!leader.is_active(round_)) return;

  // Late votes (arrived after the tally deadline) still count for scores.
  auto& duties = committee.duties;
  leader_flush_votes(duties.intra);
  leader_flush_votes(duties.cross);

  // Scores compare each member's votes on both lists, concatenated, with
  // the leader's decisions; each part is padded to its list's length.
  auto joined = [&](VoteVector intra, VoteVector cross, Vote fill) {
    intra.resize(committee.intra_list.size(), fill);
    cross.resize(committee.cross_list.size(), fill);
    intra.insert(intra.end(), cross.begin(), cross.end());
    return intra;
  };
  auto vote_of = [](const VoteTally& tally, net::NodeId id) {
    auto it = tally.votes.find(id);
    return it == tally.votes.end() ? VoteVector{} : it->second;
  };
  const VoteVector decision =
      joined(duties.intra.decision, duties.cross.decision, Vote::kNo);

  wire::ScoreListMsg scores;
  scores.committee = k;
  for (net::NodeId id : committee_members(k)) {
    if (id == leader.id) continue;
    const VoteVector vote = joined(vote_of(duties.intra, id),
                                   vote_of(duties.cross, id), Vote::kUnknown);
    scores.entries.push_back(
        {id, decision.empty() ? 0.0 : cosine_score(vote, decision)});
  }
  leader_start_instance(leader, k, seq::score(committee.attempt),
                        scores.serialize());
}

// ---------------------------------------------------------------------------
// Recovery: accusation -> impeachment -> prosecution -> re-selection
// ---------------------------------------------------------------------------

void Engine::begin_accusation(NodeState& accuser, std::uint32_t k,
                              WitnessKind kind, Bytes witness, net::Time now) {
  if (!options_.recovery_enabled) return;
  if (accuser.round.accused_this_round) return;
  if (committees_[k].attempt >= kMaxRecoveriesPerCommittee) return;
  accuser.round.accused_this_round = true;
  emit(obs::Event::kAccusation, now, k, accuser.id,
       static_cast<std::uint8_t>(kind));

  Accusation accusation;
  accusation.round = round_;
  accusation.committee = k;
  accusation.accused = nodes_[committees_[k].current_leader].keys.pk;
  accusation.accuser = accuser.keys.pk;
  accusation.kind = kind;
  accusation.witness = std::move(witness);
  accuser.round.pending_accusation = accusation;
  accuser.round.impeach_approvals.clear();
  // The accuser approves its own impeachment.
  accuser.round.impeach_approvals.push_back(crypto::make_signed(
      accuser.keys, ImpeachmentCert::approval_payload(accusation)));

  net_->multicast(accuser.id, committee_members(k), net::Tag::kAccuse,
                  accusation.serialize());
}

void Engine::on_accuse(NodeState& self, const net::Message& msg) {
  const auto& accusation = msg.decoded<Accusation>();
  if (self.committee != static_cast<std::int64_t>(accusation.committee)) return;
  const net::NodeId accuser_id = node_of_pk(accusation.accuser);
  if (accuser_id == net::kNoNode || accuser_id == self.id) return;

  bool approve = false;
  if (self.misbehaves(round_)) {
    // Colluding nodes back their co-conspirators' accusations and stay
    // silent on honest ones.
    approve = nodes_[accuser_id].misbehaves(round_);
  } else if (accusation.witness_valid()) {
    approve = true;  // transferable cryptographic witness
  } else if (accusation.kind == WitnessKind::kTimeout) {
    if (accusation.witness.empty()) {
      // Leader silence: approve only if we observed it ourselves — the
      // TXList broadcast is the first leader action every member sees,
      // so corroboration is only possible once the intra phase started.
      approve = net_->phase() >= net::Phase::kIntraConsensus &&
                !self.round.leader_sent_txlist;
    } else {
      // Cross-shard concealment: the witness is the certified hint; we
      // approve when the origin certificate checks out and our leader
      // never engaged the consensus for that origin. Key members can
      // additionally bind the member list to the origin's
      // semi-commitment; common members (who never received the acks)
      // rely on signature verification, and the referee re-checks the
      // binding at prosecution time. A malformed witness throws, and
      // dispatch drops the accusation.
      const auto req = wire::CrossTxListMsg::deserialize(accusation.witness);
      const crypto::Digest* commitment =
          self.round.commitments.find(req.origin);
      if (commitment != nullptr &&
          !verify_semi_commitment(*commitment, req.origin_members)) {
        return;  // provably fabricated list
      }
      approve =
          certifies(req.origin_cert, req.agreed_payload(),
                    req.origin_members) &&
          !self.round.cross_seen_propose.contains(req.origin);
    }
  }
  if (!approve) return;
  crypto::SignedMessage approval = crypto::make_signed(
      self.keys, ImpeachmentCert::approval_payload(accusation));
  net_->send(self.id, accuser_id, net::Tag::kImpeachVote,
             approval.serialize());
}

void Engine::on_impeach_vote(NodeState& self, const net::Message& msg) {
  if (!self.round.pending_accusation || self.round.sent_prosecution) return;
  const auto& approval = msg.decoded<crypto::SignedMessage>();
  const Bytes expected =
      ImpeachmentCert::approval_payload(*self.round.pending_accusation);
  if (!equal(approval.payload, expected) || !approval.valid()) return;
  for (const auto& existing : self.round.impeach_approvals) {
    if (existing.signer == approval.signer) return;
  }
  self.round.impeach_approvals.push_back(approval);

  const std::uint32_t k = self.round.pending_accusation->committee;
  const std::size_t committee_size = assign_.committees[k].size();
  if (self.round.impeach_approvals.size() * 2 > committee_size) {
    ImpeachmentCert cert;
    cert.accusation = *self.round.pending_accusation;
    cert.approvals = self.round.impeach_approvals;
    send_to_referees(self.id, net::Tag::kProsecute,
                     net::make_payload(cert.serialize()));
    self.round.sent_prosecution = true;
  }
}

bool Engine::referee_corroborates_timeout(const NodeState& referee,
                                          const Accusation& accusation) const {
  const std::uint32_t k = accusation.committee;
  if (accusation.witness.empty()) {
    // Leader silence: the referee corroborates when it too received no
    // certified output from that committee for the current phase.
    if (net_->phase() == net::Phase::kSemiCommit) {
      return !referee.round.commitments.contains(k);
    }
    return !committees_[k].results.contains({ResultKind::kIntra, k});
  }
  // Cross concealment: the hint proves the origin committee produced a
  // certified list, yet no cross result for (origin -> k) arrived. A
  // malformed witness throws, and dispatch drops the prosecution.
  const auto req = wire::CrossTxListMsg::deserialize(accusation.witness);
  if (req.dest != k) return false;
  const crypto::Digest* commitment =
      referee.round.commitments.find(req.origin);
  if (commitment == nullptr) return false;
  if (!verify_semi_commitment(*commitment, req.origin_members)) return false;
  return certifies(req.origin_cert, req.agreed_payload(),
                   req.origin_members) &&
         !committees_[k].results.contains({ResultKind::kCross, req.origin});
}

void Engine::on_prosecute(NodeState& self, const net::Message& msg,
                          net::Time now) {
  if (self.role != Role::kReferee) return;
  const auto& cert = msg.decoded<ImpeachmentCert>();
  const auto& accusation = cert.accusation;
  if (accusation.committee >= params_.m) return;
  if (committees_[accusation.committee].leader_convicted) return;
  // The accused must actually be the current leader.
  const crypto::PublicKey current =
      nodes_[committees_[accusation.committee].current_leader].keys.pk;
  if (!(accusation.accused == current)) return;

  // Verify the impeachment vote (>C/2 of the committee).
  const auto& pks = roster(accusation.committee);
  if (!cert.verify(pks, pks.size())) return;

  // Verify the witness: either cryptographically transferable, or a
  // timeout the referee can corroborate from its own observations.
  const bool witness_ok =
      accusation.witness_valid() ||
      (accusation.kind == WitnessKind::kTimeout &&
       referee_corroborates_timeout(self, accusation));
  if (!witness_ok) return;

  // Only the designated referee drives the re-selection instance.
  const std::uint64_t sn = seq::reselect(accusation.committee,
                                       committees_[accusation.committee].attempt);
  if (designated_referee(sn) != self.id) return;
  referee_convict(self, accusation, now, msg.payload());
}

void Engine::referee_convict(NodeState& referee, const Accusation& accusation,
                             net::Time now, const Bytes& impeachment) {
  const std::uint32_t k = accusation.committee;
  if (committees_[k].leader_convicted) return;
  committees_[k].leader_convicted = true;
  convicted_leaders_.insert(committees_[k].current_leader);
  emit(obs::Event::kConviction, now, k, committees_[k].current_leader);

  // Choose the replacement: the accusing partial-set member when
  // applicable, otherwise the first partial-set member that is not the
  // accused ("a node in the partial set will take his/her place").
  net::NodeId replacement = net::kNoNode;
  const net::NodeId accuser_id = node_of_pk(accusation.accuser);
  const auto& partial = assign_.committees[k].partial;
  if (accuser_id != net::kNoNode &&
      std::find(partial.begin(), partial.end(), accuser_id) != partial.end()) {
    replacement = accuser_id;
  } else {
    for (net::NodeId pm : partial) {
      if (pm != committees_[k].current_leader && nodes_[pm].is_active(round_)) {
        replacement = pm;
        break;
      }
    }
  }
  if (replacement == net::kNoNode) {
    committees_[k].leader_convicted = false;  // nobody can take over
    return;
  }
  committees_[k].pending_new_leader = replacement;

  // C_R agrees on the re-selection via Algorithm 3 (Alg. 6 line 3).
  wire::NewLeaderMsg announcement;
  announcement.committee = k;
  announcement.evicted = accusation.accused;
  announcement.new_leader = nodes_[replacement].keys.pk;
  Writer w;
  w.str("RESELECT");
  w.bytes(announcement.serialize());
  w.bytes(impeachment);
  leader_start_instance(referee, params_.m,
                        seq::reselect(k, committees_[k].attempt), w.take());
}

void Engine::announce_new_leader(NodeState& referee, std::uint32_t k) {
  const net::NodeId replacement = committees_[k].pending_new_leader;
  if (replacement == net::kNoNode) return;
  wire::NewLeaderMsg announcement;
  announcement.committee = k;
  announcement.evicted = nodes_[committees_[k].current_leader].keys.pk;
  announcement.new_leader = nodes_[replacement].keys.pk;
  const auto payload = net::make_payload(announcement.serialize());
  // Alg. 6 line 4: send to every member of C_k; also inform all leaders
  // so cross-shard handling can resume safely.
  net_->multicast_shared(referee.id, committee_members(k),
                         net::Tag::kNewLeader, payload);
  for (std::uint32_t j = 0; j < params_.m; ++j) {
    if (j == k) continue;
    net_->send_shared(referee.id, committees_[j].current_leader,
                      net::Tag::kNewLeader, payload);
  }
  install_new_leader(k, replacement, net_->now());
}

void Engine::on_new_leader(NodeState& self, const net::Message& msg) {
  // Member-side state refresh; the authoritative switch happened in
  // install_new_leader when C_R certified the re-selection, so only a
  // referee seat announces one.
  if (!referee_seat(msg.from)) return;
  const auto& announcement = msg.decoded<wire::NewLeaderMsg>();
  if (self.committee == static_cast<std::int64_t>(announcement.committee)) {
    self.round.leader_sent_txlist = false;
  }
}

void Engine::install_new_leader(std::uint32_t k, net::NodeId new_leader,
                                net::Time now) {
  const net::NodeId old_leader = committees_[k].current_leader;
  RecoveryEvent event;
  event.round = round_;
  event.committee = k;
  event.old_leader = old_leader;
  event.new_leader = new_leader;
  recovery_log_.push_back(event);
  emit(obs::Event::kNewLeader, now, k, old_leader, new_leader);

  nodes_[old_leader].role = Role::kCommon;  // evicted
  nodes_[new_leader].role = Role::kLeader;
  committees_[k].current_leader = new_leader;
  committees_[k].duties = {};
  committees_[k].attempt += 1;

  redo_leader_duties(k, now);
}

void Engine::redo_leader_duties(std::uint32_t k, net::Time now) {
  NodeState& leader = nodes_[committees_[k].current_leader];
  if (!leader.is_active(round_)) return;

  // The new leader always publishes a fresh semi-commitment (§V-D).
  if (net_->phase() >= net::Phase::kSemiCommit) {
    leader_send_semicommit(leader, k);
  }
  switch (net_->phase()) {
    case net::Phase::kIntraConsensus:
      leader_start_list(k, ListKind::kIntra, now);
      break;
    case net::Phase::kInterConsensus:
      // recover the intra output too
      leader_start_list(k, ListKind::kIntra, now);
      leader_start_list(k, ListKind::kCross, now);
      // Process any cross lists the partial member already holds.
      for (const auto& [origin, hint] : leader.round.cross_hints) {
        leader_handle_cross_in(leader, wire::CrossTxListMsg::deserialize(hint),
                               hint);
      }
      break;
    case net::Phase::kReputation:
      leader_send_scores(k);
      break;
    default:
      break;
  }
}

}  // namespace cyc::protocol
