// Accusation / witness types for the leader re-selection procedure
// (Algorithm 6, §V-D).
//
// A witness W = (m_l, m_0) is valid iff the pair derives dishonest
// behaviour of the leader, with m_l signed by the leader (so an honest
// leader can never be framed, Claim 4). We support the two signed-witness
// kinds the paper describes plus the timeout case: a leader that goes
// silent signs nothing, so eviction relies on the referee committee
// corroborating the observed silence (it too received nothing).
#pragma once

#include <cstdint>
#include <optional>

#include "consensus/types.hpp"
#include "protocol/semicommit.hpp"

namespace cyc::protocol {

enum class WitnessKind : std::uint8_t {
  kEquivocation = 0,   ///< two conflicting signed PROPOSEs (Alg. 3)
  kCommitMismatch,     ///< list vs semi-commitment mismatch (§V-D)
  kTimeout,            ///< leader silent past its deadline (no signature)
};

std::string_view witness_kind_name(WitnessKind k);

struct Accusation {
  std::uint64_t round = 0;
  std::uint32_t committee = 0;
  crypto::PublicKey accused;   ///< the leader
  crypto::PublicKey accuser;   ///< the partial-set member (or referee)
  WitnessKind kind = WitnessKind::kTimeout;
  Bytes witness;               ///< serialized witness for the kind

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(s.round, s.committee, s.accused, s.accuser, s.kind, s.witness);
  }
  Bytes serialize() const { return encode(*this); }
  static Accusation deserialize(BytesView b) { return decode<Accusation>(b); }

  /// Validity per Claim 3/4. For signed kinds this checks the witness
  /// cryptographically. Timeout accusations return false here — they are
  /// only accepted when the verifier *itself* observed the silence, which
  /// the caller must check (see Engine::referee_corroborates_timeout).
  bool witness_valid() const;
};

/// The impeachment certificate: more than half the committee approved the
/// accusation (the voting result the prosecutor forwards to C_R).
struct ImpeachmentCert {
  Accusation accusation;
  std::vector<crypto::SignedMessage> approvals;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(nested(s.accusation), nested_each(s.approvals));
  }
  Bytes serialize() const { return encode(*this); }
  static ImpeachmentCert deserialize(BytesView b) {
    return decode<ImpeachmentCert>(b);
  }

  /// >C/2 distinct committee members signed the accusation digest.
  bool verify(const std::vector<crypto::PublicKey>& committee,
              std::size_t committee_size) const;

  /// The payload each approver signs.
  static Bytes approval_payload(const Accusation& a);
};

}  // namespace cyc::protocol
