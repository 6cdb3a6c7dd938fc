// Canonical payload codecs for every protocol message. Kept separate from
// the engine so tests can build and inspect wire payloads directly.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/types.hpp"
#include "ledger/types.hpp"
#include "protocol/reputation.hpp"
#include "protocol/sortition.hpp"
#include "support/bytes.hpp"
#include "support/serde.hpp"

namespace cyc::protocol::wire {

/// CONFIG / MEMBER: <PK, address(=node id), hash, pi> of Alg. 2.
struct Intro {
  std::uint32_t node = 0;
  crypto::PublicKey pk;
  SortitionTicket ticket;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.node, s.pk, s.ticket.committee, nested(s.ticket.proof));
  }
  Bytes serialize() const { return encode(*this); }
  static Intro deserialize(BytesView b) { return decode<Intro>(b); }
};

/// MEM_LIST: a key member's current registration list, as two parallel
/// vectors of equal length.
struct MemberListMsg {
  std::vector<std::uint32_t> nodes;
  std::vector<crypto::PublicKey> pks;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.nodes, s.pks); }
  Bytes serialize() const { return encode(*this); }
  /// Throws std::invalid_argument if the two counts differ.
  static MemberListMsg deserialize(BytesView b);
};

/// Envelope for Algorithm 3 traffic: (scope, sn) route + wire bytes.
struct ConsensusEnvelope {
  std::uint32_t scope = 0;  ///< committee id, or m for the referee scope
  std::uint64_t sn = 0;
  Bytes wire;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.scope, s.sn, s.wire); }
  Bytes serialize() const { return encode(*this); }
  static ConsensusEnvelope deserialize(BytesView b) {
    return decode<ConsensusEnvelope>(b);
  }
};

/// SEMI_COM bundle the leader distributes: signed commitment plus signed
/// member list (Alg. 4).
struct SemiCommitMsg {
  std::uint32_t committee = 0;
  crypto::SignedMessage commitment_msg;
  crypto::SignedMessage list_msg;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.committee, nested(s.commitment_msg), nested(s.list_msg));
  }
  Bytes serialize() const { return encode(*this); }
  static SemiCommitMsg deserialize(BytesView b) {
    return decode<SemiCommitMsg>(b);
  }
};

/// One accepted semi-commitment as the referees relay it: the committee
/// and its digest H(S). Key members never need the list S itself — they
/// check a cross-shard request's own member list against the digest.
struct SemiCommitAck {
  std::uint32_t committee = 0;
  crypto::Digest commitment{};

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.committee, s.commitment); }
  bool operator==(const SemiCommitAck&) const = default;
  Bytes serialize() const { return encode(*this); }
  static SemiCommitAck deserialize(BytesView b) {
    return decode<SemiCommitAck>(b);
  }
};

/// SEMI_COM_ACK: "the set of valid semi-commitments" a referee transmits
/// to every key member (Alg. 4) — every commitment it accepted by the
/// flush, or one accepted after it.
struct SemiCommitBatch {
  std::vector<SemiCommitAck> entries;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.entries); }
  Bytes serialize() const { return encode(*this); }
  static SemiCommitBatch deserialize(BytesView b) {
    return decode<SemiCommitBatch>(b);
  }
};

/// TX_LIST the leader broadcasts (intra or cross list).
struct TxListMsg {
  std::uint32_t committee = 0;
  std::uint32_t attempt = 0;
  bool cross = false;
  crypto::SignedMessage signed_list;  ///< payload = serialized txs

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.committee, s.attempt, s.cross, nested(s.signed_list));
  }
  Bytes serialize() const { return encode(*this); }
  static TxListMsg deserialize(BytesView b) { return decode<TxListMsg>(b); }
};

inline Bytes encode_tx_vec(const std::vector<ledger::Transaction>& txs) {
  return encode(txs);
}
inline std::vector<ledger::Transaction> decode_tx_vec(BytesView b) {
  return decode<std::vector<ledger::Transaction>>(b);
}

/// VOTE reply.
struct VoteMsg {
  std::uint32_t committee = 0;
  std::uint32_t attempt = 0;
  bool cross = false;
  crypto::SignedMessage signed_vote;  ///< payload = encode_vote_vec

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.committee, s.attempt, s.cross, nested(s.signed_vote));
  }
  Bytes serialize() const { return encode(*this); }
  static VoteMsg deserialize(BytesView b) { return decode<VoteMsg>(b); }
};

inline Bytes encode_vote_vec(const VoteVector& votes) { return encode(votes); }
inline VoteVector decode_vote_vec(BytesView b) {
  return decode<VoteVector>(b);
}

/// The message M agreed by Alg. 3 in the intra phase: TXdecSET + VList
/// digest (the full VList travels alongside; digest keeps M small).
struct IntraDecision {
  std::uint32_t committee = 0;
  std::uint32_t attempt = 0;
  std::vector<ledger::Transaction> txdec_set;
  crypto::Digest vlist_digest{};

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(Literal{"INTRA_DEC"}, s.committee, s.attempt, nested(s.txdec_set),
       s.vlist_digest);
  }
  Bytes serialize() const { return encode(*this); }
  static IntraDecision deserialize(BytesView b) {
    return decode<IntraDecision>(b);
  }
};

/// INTRA result sent to the referees: decision + quorum certificate.
struct CertifiedResult {
  Bytes payload;  ///< the agreed message M
  Bytes cert;     ///< serialized QuorumCert over H(M)

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.payload, s.cert); }
  Bytes serialize() const { return encode(*this); }
  static CertifiedResult deserialize(BytesView b) {
    return decode<CertifiedResult>(b);
  }
};

/// Cross-shard TX list from committee `origin` to committee `dest`
/// (§IV-D): the agreed list, the origin's certificate and member list
/// (checkable against the origin's semi-commitment).
struct CrossTxListMsg {
  std::uint32_t origin = 0;
  std::uint32_t dest = 0;
  std::uint32_t attempt = 0;
  std::vector<ledger::Transaction> txs;
  Bytes origin_cert;  ///< QuorumCert over the cross-out decision
  std::vector<crypto::PublicKey> origin_members;

  /// The message the origin committee agreed on via Alg. 3.
  Bytes agreed_payload() const;
  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.origin, s.dest, s.attempt, nested(s.txs), s.origin_cert,
       s.origin_members);
  }
  Bytes serialize() const { return encode(*this); }
  static CrossTxListMsg deserialize(BytesView b) {
    return decode<CrossTxListMsg>(b);
  }
};

/// Destination committee's answer: both certificates travel to l_i and
/// the referee committee.
struct CrossResultMsg {
  CrossTxListMsg request;
  Bytes dest_cert;  ///< QuorumCert of the destination acceptance
  std::vector<crypto::PublicKey> dest_members;

  /// The acceptance message the destination committee agreed on.
  Bytes acceptance_payload() const;
  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(nested(s.request), s.dest_cert, s.dest_members);
  }
  Bytes serialize() const { return encode(*this); }
  static CrossResultMsg deserialize(BytesView b) {
    return decode<CrossResultMsg>(b);
  }
};

/// One node's cosine score in a ScoreList.
struct ScoreEntry {
  std::uint32_t node = 0;
  double score = 0;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.node, s.score); }
  bool operator==(const ScoreEntry&) const = default;
};

/// ScoreList (§IV-E): per-node cosine scores.
struct ScoreListMsg {
  std::uint32_t committee = 0;
  std::vector<ScoreEntry> entries;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(Literal{"SCORE_LIST"}, s.committee, s.entries);
  }
  Bytes serialize() const { return encode(*this); }
  static ScoreListMsg deserialize(BytesView b) {
    return decode<ScoreListMsg>(b);
  }
};

/// PoW registration (§IV-F).
struct PowMsg {
  std::uint32_t node = 0;
  crypto::PublicKey pk;
  std::uint64_t nonce = 0;
  crypto::Digest digest{};

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.node, s.pk, s.nonce, s.digest);
  }
  Bytes serialize() const { return encode(*this); }
  static PowMsg deserialize(BytesView b) { return decode<PowMsg>(b); }
};

/// NEW leader announcement (Alg. 6).
struct NewLeaderMsg {
  std::uint32_t committee = 0;
  crypto::PublicKey evicted;
  crypto::PublicKey new_leader;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.committee, s.evicted, s.new_leader);
  }
  Bytes serialize() const { return encode(*this); }
  static NewLeaderMsg deserialize(BytesView b) {
    return decode<NewLeaderMsg>(b);
  }
};

/// Block summary broadcast to every node (§IV-G). Carries enough for
/// members to update their shard state; sizes approximate a real block.
struct BlockMsg {
  std::uint64_t round = 0;
  std::vector<ledger::Transaction> txs;
  crypto::Digest randomness{};
  crypto::Digest body_root{};  ///< Merkle root over the tx leaves

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.round, nested(s.txs), s.randomness, s.body_root);
  }
  Bytes serialize() const { return encode(*this); }
  static BlockMsg deserialize(BytesView b) { return decode<BlockMsg>(b); }
};

}  // namespace cyc::protocol::wire
