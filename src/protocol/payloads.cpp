#include "protocol/payloads.hpp"

#include <stdexcept>

#include "support/serde.hpp"

namespace cyc::protocol::wire {

namespace {

thread_local std::uint64_t t_block_decodes = 0;

void write_pk_vec(Writer& w, const std::vector<crypto::PublicKey>& pks) {
  w.u32(static_cast<std::uint32_t>(pks.size()));
  for (const auto& pk : pks) w.u64(pk.y);
}

std::vector<crypto::PublicKey> read_pk_vec(Reader& rd) {
  const std::uint32_t count = rd.u32();
  std::vector<crypto::PublicKey> pks;
  pks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) pks.push_back({rd.u64()});
  return pks;
}

}  // namespace

// --- Intro -------------------------------------------------------------------

Bytes Intro::serialize() const {
  Writer w;
  w.u32(node);
  w.u64(pk.y);
  w.u32(ticket.committee);
  w.bytes(ticket.proof.serialize());
  return w.take();
}

Intro Intro::deserialize(BytesView b) {
  Reader rd(b);
  Intro i;
  i.node = rd.u32();
  i.pk.y = rd.u64();
  i.ticket.committee = rd.u32();
  i.ticket.proof = crypto::VrfOutput::deserialize(rd.bytes());
  return i;
}

// --- MemberListMsg -------------------------------------------------------------

Bytes MemberListMsg::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (std::uint32_t n : nodes) w.u32(n);
  write_pk_vec(w, pks);
  return w.take();
}

MemberListMsg MemberListMsg::deserialize(BytesView b) {
  Reader rd(b);
  MemberListMsg m;
  const std::uint32_t count = rd.u32();
  m.nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.nodes.push_back(rd.u32());
  m.pks = read_pk_vec(rd);
  return m;
}

// --- ConsensusEnvelope ---------------------------------------------------------

Bytes ConsensusEnvelope::serialize() const {
  Writer w;
  w.u32(scope);
  w.u64(sn);
  w.bytes(wire);
  return w.take();
}

ConsensusEnvelope ConsensusEnvelope::deserialize(BytesView b) {
  Reader rd(b);
  ConsensusEnvelope e;
  e.scope = rd.u32();
  e.sn = rd.u64();
  e.wire = rd.bytes();
  return e;
}

// --- SemiCommitMsg -------------------------------------------------------------

Bytes SemiCommitMsg::serialize() const {
  Writer w;
  w.u32(committee);
  w.bytes(commitment_msg.serialize());
  w.bytes(list_msg.serialize());
  return w.take();
}

SemiCommitMsg SemiCommitMsg::deserialize(BytesView b) {
  Reader rd(b);
  SemiCommitMsg m;
  m.committee = rd.u32();
  m.commitment_msg = crypto::SignedMessage::deserialize(rd.bytes());
  m.list_msg = crypto::SignedMessage::deserialize(rd.bytes());
  return m;
}

// --- SemiCommitAck -------------------------------------------------------------

Bytes SemiCommitAck::serialize() const {
  Writer w;
  w.u32(committee);
  w.bytes(crypto::digest_to_bytes(commitment));
  write_pk_vec(w, members);
  w.bytes(cert);
  return w.take();
}

SemiCommitAck SemiCommitAck::deserialize(BytesView b) {
  Reader rd(b);
  SemiCommitAck a;
  a.committee = rd.u32();
  a.commitment = crypto::digest_from_bytes(rd.bytes());
  a.members = read_pk_vec(rd);
  a.cert = rd.bytes();
  return a;
}

// --- TxListMsg / VoteMsg --------------------------------------------------------

Bytes encode_tx_vec(const std::vector<ledger::Transaction>& txs) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const auto& tx : txs) w.bytes(tx.serialize());
  return w.take();
}

std::vector<ledger::Transaction> decode_tx_vec(BytesView b) {
  Reader rd(b);
  const std::uint32_t count = rd.u32();
  std::vector<ledger::Transaction> txs;
  txs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    txs.push_back(ledger::Transaction::deserialize(rd.bytes()));
  }
  return txs;
}

Bytes TxListMsg::serialize() const {
  Writer w;
  w.u32(committee);
  w.u32(attempt);
  w.boolean(cross);
  w.bytes(signed_list.serialize());
  return w.take();
}

TxListMsg TxListMsg::deserialize(BytesView b) {
  Reader rd(b);
  TxListMsg m;
  m.committee = rd.u32();
  m.attempt = rd.u32();
  m.cross = rd.boolean();
  m.signed_list = crypto::SignedMessage::deserialize(rd.bytes());
  return m;
}

Bytes encode_vote_vec(const VoteVector& votes) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(votes.size()));
  for (Vote v : votes) {
    w.u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(v) + 1));
  }
  return w.take();
}

VoteVector decode_vote_vec(BytesView b) {
  Reader rd(b);
  const std::uint32_t count = rd.u32();
  VoteVector votes;
  votes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    votes.push_back(static_cast<Vote>(static_cast<std::int8_t>(rd.u8()) - 1));
  }
  return votes;
}

Bytes VoteMsg::serialize() const {
  Writer w;
  w.u32(committee);
  w.u32(attempt);
  w.boolean(cross);
  w.bytes(signed_vote.serialize());
  return w.take();
}

VoteMsg VoteMsg::deserialize(BytesView b) {
  Reader rd(b);
  VoteMsg m;
  m.committee = rd.u32();
  m.attempt = rd.u32();
  m.cross = rd.boolean();
  m.signed_vote = crypto::SignedMessage::deserialize(rd.bytes());
  return m;
}

// --- IntraDecision / CertifiedResult --------------------------------------------

Bytes IntraDecision::serialize() const {
  Writer w;
  w.str("INTRA_DEC");
  w.u32(committee);
  w.u32(attempt);
  w.bytes(encode_tx_vec(txdec_set));
  w.bytes(crypto::digest_to_bytes(vlist_digest));
  return w.take();
}

IntraDecision IntraDecision::deserialize(BytesView b) {
  Reader rd(b);
  if (rd.str() != "INTRA_DEC") {
    throw std::invalid_argument("IntraDecision: bad tag");
  }
  IntraDecision d;
  d.committee = rd.u32();
  d.attempt = rd.u32();
  d.txdec_set = decode_tx_vec(rd.bytes());
  d.vlist_digest = crypto::digest_from_bytes(rd.bytes());
  return d;
}

Bytes CertifiedResult::serialize() const {
  Writer w;
  w.bytes(payload);
  w.bytes(cert);
  return w.take();
}

CertifiedResult CertifiedResult::deserialize(BytesView b) {
  Reader rd(b);
  CertifiedResult r;
  r.payload = rd.bytes();
  r.cert = rd.bytes();
  return r;
}

// --- Cross-shard ----------------------------------------------------------------

Bytes CrossTxListMsg::agreed_payload() const {
  Writer w;
  w.str("CROSS_OUT");
  w.u32(origin);
  w.u32(dest);
  w.u32(attempt);
  w.bytes(encode_tx_vec(txs));
  return w.take();
}

Bytes CrossTxListMsg::serialize() const {
  Writer w;
  w.u32(origin);
  w.u32(dest);
  w.u32(attempt);
  w.bytes(encode_tx_vec(txs));
  w.bytes(origin_cert);
  write_pk_vec(w, origin_members);
  return w.take();
}

CrossTxListMsg CrossTxListMsg::deserialize(BytesView b) {
  Reader rd(b);
  CrossTxListMsg m;
  m.origin = rd.u32();
  m.dest = rd.u32();
  m.attempt = rd.u32();
  m.txs = decode_tx_vec(rd.bytes());
  m.origin_cert = rd.bytes();
  m.origin_members = read_pk_vec(rd);
  return m;
}

Bytes CrossResultMsg::acceptance_payload() const {
  Writer w;
  w.str("CROSS_IN");
  w.u32(request.origin);
  w.u32(request.dest);
  w.bytes(crypto::sha256_bytes(request.agreed_payload()));
  return w.take();
}

Bytes CrossResultMsg::serialize() const {
  Writer w;
  w.bytes(request.serialize());
  w.bytes(dest_cert);
  write_pk_vec(w, dest_members);
  return w.take();
}

CrossResultMsg CrossResultMsg::deserialize(BytesView b) {
  Reader rd(b);
  CrossResultMsg m;
  m.request = CrossTxListMsg::deserialize(rd.bytes());
  m.dest_cert = rd.bytes();
  m.dest_members = read_pk_vec(rd);
  return m;
}

// --- ScoreListMsg ----------------------------------------------------------------

Bytes ScoreListMsg::serialize() const {
  Writer w;
  w.str("SCORE_LIST");
  w.u32(committee);
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    w.u32(nodes[i]);
    w.f64(scores[i]);
  }
  return w.take();
}

ScoreListMsg ScoreListMsg::deserialize(BytesView b) {
  Reader rd(b);
  if (rd.str() != "SCORE_LIST") {
    throw std::invalid_argument("ScoreListMsg: bad tag");
  }
  ScoreListMsg m;
  m.committee = rd.u32();
  const std::uint32_t count = rd.u32();
  m.nodes.reserve(count);
  m.scores.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    m.nodes.push_back(rd.u32());
    m.scores.push_back(rd.f64());
  }
  return m;
}

// --- PowMsg ----------------------------------------------------------------------

Bytes PowMsg::serialize() const {
  Writer w;
  w.u32(node);
  w.u64(pk.y);
  w.u64(nonce);
  w.bytes(crypto::digest_to_bytes(digest));
  return w.take();
}

PowMsg PowMsg::deserialize(BytesView b) {
  Reader rd(b);
  PowMsg m;
  m.node = rd.u32();
  m.pk.y = rd.u64();
  m.nonce = rd.u64();
  m.digest = crypto::digest_from_bytes(rd.bytes());
  return m;
}

// --- NewLeaderMsg ------------------------------------------------------------------

Bytes NewLeaderMsg::serialize() const {
  Writer w;
  w.u32(committee);
  w.u64(evicted.y);
  w.u64(new_leader.y);
  return w.take();
}

NewLeaderMsg NewLeaderMsg::deserialize(BytesView b) {
  Reader rd(b);
  NewLeaderMsg m;
  m.committee = rd.u32();
  m.evicted.y = rd.u64();
  m.new_leader.y = rd.u64();
  return m;
}

// --- BlockMsg ----------------------------------------------------------------------

Bytes BlockMsg::serialize() const {
  Writer w;
  w.u64(round);
  w.bytes(encode_tx_vec(txs));
  w.bytes(crypto::digest_to_bytes(randomness));
  w.bytes(crypto::digest_to_bytes(body_root));
  return w.take();
}

BlockMsg BlockMsg::deserialize(BytesView b) {
  ++t_block_decodes;
  Reader rd(b);
  BlockMsg m;
  m.round = rd.u64();
  m.txs = decode_tx_vec(rd.bytes());
  m.randomness = crypto::digest_from_bytes(rd.bytes());
  m.body_root = crypto::digest_from_bytes(rd.bytes());
  return m;
}

std::uint64_t block_decodes() { return t_block_decodes; }

}  // namespace cyc::protocol::wire
