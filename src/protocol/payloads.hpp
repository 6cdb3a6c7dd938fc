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

namespace cyc::protocol::wire {

/// CONFIG / MEMBER: <PK, address(=node id), hash, pi> of Alg. 2.
struct Intro {
  std::uint32_t node = 0;
  crypto::PublicKey pk;
  SortitionTicket ticket;

  Bytes serialize() const;
  static Intro deserialize(BytesView b);
};

/// MEM_LIST: a key member's current registration list.
struct MemberListMsg {
  std::vector<std::uint32_t> nodes;
  std::vector<crypto::PublicKey> pks;

  Bytes serialize() const;
  static MemberListMsg deserialize(BytesView b);
};

/// Envelope for Algorithm 3 traffic: (scope, sn) route + wire bytes.
struct ConsensusEnvelope {
  std::uint32_t scope = 0;  ///< committee id, or m for the referee scope
  std::uint64_t sn = 0;
  Bytes wire;

  Bytes serialize() const;
  static ConsensusEnvelope deserialize(BytesView b);
};

/// SEMI_COM bundle the leader distributes: signed commitment plus signed
/// member list (Alg. 4).
struct SemiCommitMsg {
  std::uint32_t committee = 0;
  crypto::SignedMessage commitment_msg;
  crypto::SignedMessage list_msg;

  Bytes serialize() const;
  static SemiCommitMsg deserialize(BytesView b);
};

/// Referee relay of an accepted semi-commitment to all key members.
struct SemiCommitAck {
  std::uint32_t committee = 0;
  crypto::Digest commitment{};
  std::vector<crypto::PublicKey> members;
  Bytes cert;  ///< serialized QuorumCert from the C_R check

  Bytes serialize() const;
  static SemiCommitAck deserialize(BytesView b);
};

/// TX_LIST the leader broadcasts (intra or cross list).
struct TxListMsg {
  std::uint32_t committee = 0;
  std::uint32_t attempt = 0;
  bool cross = false;
  crypto::SignedMessage signed_list;  ///< payload = serialized txs

  Bytes serialize() const;
  static TxListMsg deserialize(BytesView b);
};

Bytes encode_tx_vec(const std::vector<ledger::Transaction>& txs);
std::vector<ledger::Transaction> decode_tx_vec(BytesView b);

/// VOTE reply.
struct VoteMsg {
  std::uint32_t committee = 0;
  std::uint32_t attempt = 0;
  bool cross = false;
  crypto::SignedMessage signed_vote;  ///< payload = encode_vote_vec

  Bytes serialize() const;
  static VoteMsg deserialize(BytesView b);
};

Bytes encode_vote_vec(const VoteVector& votes);
VoteVector decode_vote_vec(BytesView b);

/// The message M agreed by Alg. 3 in the intra phase: TXdecSET + VList
/// digest (the full VList travels alongside; digest keeps M small).
struct IntraDecision {
  std::uint32_t committee = 0;
  std::uint32_t attempt = 0;
  std::vector<ledger::Transaction> txdec_set;
  crypto::Digest vlist_digest{};

  Bytes serialize() const;
  static IntraDecision deserialize(BytesView b);
};

/// INTRA result sent to the referees: decision + quorum certificate.
struct CertifiedResult {
  Bytes payload;  ///< the agreed message M
  Bytes cert;     ///< serialized QuorumCert over H(M)

  Bytes serialize() const;
  static CertifiedResult deserialize(BytesView b);
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
  Bytes serialize() const;
  static CrossTxListMsg deserialize(BytesView b);
};

/// Destination committee's answer: both certificates travel to l_i and
/// the referee committee.
struct CrossResultMsg {
  CrossTxListMsg request;
  Bytes dest_cert;  ///< QuorumCert of the destination acceptance
  std::vector<crypto::PublicKey> dest_members;

  /// The acceptance message the destination committee agreed on.
  Bytes acceptance_payload() const;
  Bytes serialize() const;
  static CrossResultMsg deserialize(BytesView b);
};

/// ScoreList (§IV-E): per-node cosine scores.
struct ScoreListMsg {
  std::uint32_t committee = 0;
  std::vector<std::uint32_t> nodes;
  std::vector<double> scores;

  Bytes serialize() const;
  static ScoreListMsg deserialize(BytesView b);
};

/// PoW registration (§IV-F).
struct PowMsg {
  std::uint32_t node = 0;
  crypto::PublicKey pk;
  std::uint64_t nonce = 0;
  crypto::Digest digest{};

  Bytes serialize() const;
  static PowMsg deserialize(BytesView b);
};

/// NEW leader announcement (Alg. 6).
struct NewLeaderMsg {
  std::uint32_t committee = 0;
  crypto::PublicKey evicted;
  crypto::PublicKey new_leader;

  Bytes serialize() const;
  static NewLeaderMsg deserialize(BytesView b);
};

/// Block summary broadcast to every node (§IV-G). Carries enough for
/// members to update their shard state; sizes approximate a real block.
struct BlockMsg {
  std::uint64_t round = 0;
  std::vector<ledger::Transaction> txs;
  crypto::Digest randomness{};
  crypto::Digest body_root{};  ///< Merkle root over the tx leaves

  Bytes serialize() const;
  static BlockMsg deserialize(BytesView b);
};

/// BlockMsg payloads decoded on this thread since start. Thread-local in
/// the style of net::payload_allocations(): it makes the engine's
/// decode-once-per-released-block contract testable.
std::uint64_t block_decodes();

}  // namespace cyc::protocol::wire
