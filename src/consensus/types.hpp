// Shared types for the inside-committee consensus (Algorithm 3, Fig. 3).
//
// The consensus logic itself is pure (no networking): the protocol engine
// feeds incoming signed messages in and transports the produced payloads.
// This separation makes every consensus rule unit-testable without a
// simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"
#include "support/serde.hpp"

namespace cyc::consensus {

/// Identifies one consensus instance: (round, sequence number). The paper
/// requires sn to be "unique and monotonically increasing over time".
struct InstanceId {
  std::uint64_t round = 0;
  std::uint64_t sn = 0;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.round, s.sn); }
  bool operator==(const InstanceId&) const = default;
  auto operator<=>(const InstanceId&) const = default;
};

/// The leader's PROPOSE body: <r, sn, H(M)> plus the original M.
struct Propose {
  InstanceId id;
  crypto::Digest digest{};  ///< H(M)
  Bytes message;            ///< M

  /// Signed portion: <PROPOSE, r, sn, H(M)>.
  Bytes signed_part() const;
  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.id, s.digest, s.message); }
  Bytes serialize() const { return encode(*this); }
  static Propose deserialize(BytesView b) { return decode<Propose>(b); }
};

/// The leader-signed PROPOSE header <PROPOSE, r, sn, H(M)> as read back
/// from a signature payload.
struct ProposeHeader {
  bool tagged = false;  ///< the leading tag is "PROPOSE"
  InstanceId id;
  crypto::Digest digest{};

  /// Reads the four header fields whatever the tag says; nullopt if the
  /// payload is truncated or the digest field is not 32 bytes.
  static std::optional<ProposeHeader> parse(BytesView payload);
};

/// A member's ECHO body: <r, sn, H(M), i>, carrying the relayed PROPOSE.
struct Echo {
  InstanceId id;
  crypto::Digest digest{};
  std::uint64_t member = 0;           ///< echoing member index
  crypto::SignedMessage propose_sig;  ///< relayed signed PROPOSE

  Bytes signed_part() const;
  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.id, s.digest, s.member, nested(s.propose_sig));
  }
  Bytes serialize() const { return encode(*this); }
  static Echo deserialize(BytesView b) { return decode<Echo>(b); }
};

/// A member's CONFIRM: <r, sn, H(M), i> plus the collected EchoList.
struct Confirm {
  InstanceId id;
  crypto::Digest digest{};
  std::uint64_t member = 0;
  std::vector<crypto::SignedMessage> echo_list;

  Bytes signed_part() const;
  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.id, s.digest, s.member, nested_each(s.echo_list));
  }
  Bytes serialize() const { return encode(*this); }
  static Confirm deserialize(BytesView b) { return decode<Confirm>(b); }
};

/// The SigList returned by Algorithm 3: >C/2 signed CONFIRMs over one
/// digest. This is the transferable certificate other committees and the
/// referee committee check (semi-commitments, TXdecSET, ScoreList, ...).
struct QuorumCert {
  InstanceId id;
  crypto::Digest digest{};
  std::vector<crypto::SignedMessage> confirms;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.id, s.digest, nested_each(s.confirms));
  }
  Bytes serialize() const { return encode(*this); }
  static QuorumCert deserialize(BytesView b) { return decode<QuorumCert>(b); }

  /// Verify: every confirm is a valid signature by a *distinct* member of
  /// `committee` over <CONFIRM, r, sn, digest>, and there are more than
  /// committee_size/2 of them.
  bool verify(const std::vector<crypto::PublicKey>& committee,
              std::size_t committee_size) const;
};

/// Proof that a leader equivocated: two PROPOSEs for the same (r, sn)
/// with different digests, both signed by the leader. This is the witness
/// W = (m_l, m_0) of the leader re-selection procedure (§V-D).
struct EquivocationWitness {
  crypto::SignedMessage first;
  crypto::SignedMessage second;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(nested(s.first), nested(s.second));
  }
  Bytes serialize() const { return encode(*this); }
  static EquivocationWitness deserialize(BytesView b) {
    return decode<EquivocationWitness>(b);
  }

  /// Valid iff both messages verify under `leader`, decode as PROPOSEs
  /// with the same instance id, and carry different digests.
  bool valid(const crypto::PublicKey& leader) const;
};

}  // namespace cyc::consensus
