// Semi-commitment scheme (§IV-B, §V-D).
//
// A committee's semi-commitment is the hash of its member list:
//     SEMI_COM^r_k = H(S),  S = {PK_{k,1}, PK_{k,2}, ...}.
// Only computational *binding* is required (hence "semi"): once released,
// a polynomial-time leader cannot produce a different member list with
// the same commitment (Lemma 1), so a forged list is always detected by
// the referee committee or the partial set (Theorem 2).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {

/// Canonical encoding of a member list (sorted by key so that commitments
/// are order-independent).
Bytes encode_member_list(std::vector<crypto::PublicKey> members);

/// SEMI_COM = H(S).
crypto::Digest semi_commitment(const std::vector<crypto::PublicKey>& members);

/// Check a claimed (commitment, list) pair.
bool verify_semi_commitment(const crypto::Digest& commitment,
                            const std::vector<crypto::PublicKey>& members);

/// Witness that a leader published a semi-commitment inconsistent with
/// the member list it distributed: (signed list message, signed
/// commitment message) with H(list) != commitment. This is the §V-D
/// example witness W = (m_l, m_0), m_0 != H(m_l).
struct CommitmentMismatchWitness {
  crypto::SignedMessage list_msg;        ///< leader-signed member list
  crypto::SignedMessage commitment_msg;  ///< leader-signed SEMI_COM

  template <class IO, class Self>
  static void fields(IO& io, Self& s) {
    io(nested(s.list_msg), nested(s.commitment_msg));
  }
  Bytes serialize() const { return encode(*this); }
  static CommitmentMismatchWitness deserialize(BytesView b) {
    return decode<CommitmentMismatchWitness>(b);
  }

  /// Valid iff both messages are signed by `leader` and the hash of the
  /// list payload differs from the committed digest.
  bool valid(const crypto::PublicKey& leader) const;
};

/// Payload helpers for the two signed messages above.
Bytes commitment_payload(std::uint64_t round, std::uint32_t committee,
                         const crypto::Digest& commitment);
Bytes member_list_payload(std::uint64_t round, std::uint32_t committee,
                          const std::vector<crypto::PublicKey>& members);

/// Parse back a member-list payload.
std::vector<crypto::PublicKey> parse_member_list_payload(BytesView payload);
/// Parse back a commitment payload's digest.
crypto::Digest parse_commitment_payload(BytesView payload);

}  // namespace cyc::protocol
