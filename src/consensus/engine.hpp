// Pure state machines for Algorithm 3 (inside-committee consensus).
//
// One LeaderInstance / MemberInstance pair per (round, sn). The engine
// has no networking: methods consume decoded wire objects and return the
// payloads to transport, so the protocol layer (and the tests) decide how
// bytes move. Quorum rule is the paper's: strictly more than C/2 of the
// instance's roster, counting only ECHOs and CONFIRMs its members signed.
// An instance keeps a reference to its roster, which must outlive it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "consensus/types.hpp"

namespace cyc::consensus {

/// Wire bundle for a PROPOSE: the leader's signature over the header plus
/// the original message M.
struct ProposeWire {
  crypto::SignedMessage sig;  ///< signs Propose::signed_part()
  Bytes message;              ///< M

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(nested(s.sig), s.message); }
  Bytes serialize() const { return encode(*this); }
  static ProposeWire deserialize(BytesView b) { return decode<ProposeWire>(b); }
};

/// Wire bundle for an ECHO: member's signature over the header plus body.
struct EchoWire {
  crypto::SignedMessage sig;  ///< signs Echo::signed_part()
  Echo body;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(nested(s.sig), nested(s.body)); }
  Bytes serialize() const { return encode(*this); }
  static EchoWire deserialize(BytesView b) { return decode<EchoWire>(b); }
};

/// Wire bundle for a CONFIRM.
struct ConfirmWire {
  crypto::SignedMessage sig;  ///< signs Confirm::signed_part()
  Confirm body;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(nested(s.sig), nested(s.body)); }
  Bytes serialize() const { return encode(*this); }
  static ConfirmWire deserialize(BytesView b) { return decode<ConfirmWire>(b); }
};

/// A PROPOSE as received: the decoded wire plus its receiver-independent
/// verdicts. Each verdict is a pure function of the bytes, computed on
/// first use and then shared by every member that consumes the same
/// object, so a multicast PROPOSE is checked once however many members
/// receive it.
class ReceivedPropose {
 public:
  ReceivedPropose(ProposeWire wire) : wire_(std::move(wire)) {}

  const ProposeWire& wire() const { return wire_; }
  /// The signature verifies (through the thread-local verdict cache).
  bool signature_valid() const;
  /// The signed header, if the signature payload parses.
  const std::optional<ProposeHeader>& header() const;
  /// The header's H(M) equals the hash of the carried M. Requires header().
  bool digest_matches() const;

 private:
  ProposeWire wire_;
  mutable std::optional<bool> signature_valid_;
  mutable std::optional<std::optional<ProposeHeader>> header_;
  mutable std::optional<bool> digest_matches_;
};

/// An ECHO as received; see ReceivedPropose.
class ReceivedEcho {
 public:
  ReceivedEcho(EchoWire wire) : wire_(std::move(wire)) {}

  const EchoWire& wire() const { return wire_; }
  /// The echoing member's signature verifies (a full check that bypasses
  /// the verdict cache: this object is the verdict's only holder).
  bool signature_valid() const;
  /// The signature covers exactly this body's ECHO header.
  bool signature_binds_body() const;
  /// The relayed PROPOSE signature verifies.
  bool relay_valid() const;
  /// The relayed PROPOSE header, if its payload parses.
  const std::optional<ProposeHeader>& relay_header() const;

 private:
  EchoWire wire_;
  mutable std::optional<bool> signature_valid_;
  mutable std::optional<bool> signature_binds_body_;
  mutable std::optional<bool> relay_valid_;
  mutable std::optional<std::optional<ProposeHeader>> relay_header_;
};

/// Leader side of Algorithm 3.
class LeaderInstance {
 public:
  LeaderInstance(crypto::KeyPair keys, InstanceId id, Bytes message,
                 const std::vector<crypto::PublicKey>& roster);

  /// The PROPOSE to multicast to the committee.
  ProposeWire make_propose() const;

  /// An *equivocating* PROPOSE carrying `other_message` — used by the
  /// adversary model to exercise detection; an honest leader never calls
  /// this.
  ProposeWire make_equivocating_propose(BytesView other_message) const;

  /// Feed a CONFIRM. Returns the SigList (quorum certificate) once
  /// strictly more than C/2 distinct roster members' valid confirms
  /// arrive.
  std::optional<QuorumCert> on_confirm(const ConfirmWire& wire);

  const InstanceId& id() const { return id_; }
  /// The message being agreed on.
  const Bytes& message() const { return message_; }
  const crypto::Digest& digest() const { return digest_; }
  bool done() const { return done_; }

 private:
  crypto::KeyPair keys_;
  InstanceId id_;
  Bytes message_;
  crypto::Digest digest_;
  const std::vector<crypto::PublicKey>* roster_;
  std::map<std::uint64_t, crypto::SignedMessage> confirms_;  // by signer
  bool done_ = false;
};

/// What a member wants transported after consuming a message.
struct MemberOutput {
  std::optional<EchoWire> echo_broadcast;    ///< to all committee members
  std::optional<ConfirmWire> confirm_to_leader;
  std::optional<EquivocationWitness> witness;  ///< leader caught cheating
};

/// Member side of Algorithm 3.
class MemberInstance {
 public:
  MemberInstance(crypto::KeyPair keys, std::uint64_t member_index,
                 InstanceId id, crypto::PublicKey leader,
                 const std::vector<crypto::PublicKey>& roster);

  /// Consume the leader's PROPOSE.
  MemberOutput on_propose(const ReceivedPropose& propose);

  /// Consume a peer's ECHO (which relays the signed PROPOSE header). Only
  /// a roster member's ECHO counts toward the quorum.
  MemberOutput on_echo(const ReceivedEcho& echo);

  bool has_confirmed() const { return confirmed_; }
  const std::optional<Bytes>& accepted_message() const { return message_; }

 private:
  MemberOutput maybe_confirm();
  /// Adopt the proposal header (digest) and broadcast our own ECHO once.
  void echo_once(MemberOutput& out);
  std::optional<EquivocationWitness> check_equivocation(
      const crypto::SignedMessage& propose_sig);

  crypto::KeyPair keys_;
  std::uint64_t index_;
  InstanceId id_;
  crypto::PublicKey leader_;
  const std::vector<crypto::PublicKey>* roster_;

  std::optional<crypto::SignedMessage> seen_propose_;
  std::optional<crypto::Digest> digest_;
  std::optional<Bytes> message_;
  // By signer, for our digest; moved into our CONFIRM once it is sent.
  std::map<std::uint64_t, crypto::SignedMessage> echoes_;
  bool echoed_ = false;
  bool confirmed_ = false;
};

}  // namespace cyc::consensus
