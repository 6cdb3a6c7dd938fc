#include "protocol/witness.hpp"

#include <set>

#include "support/serde.hpp"

namespace cyc::protocol {

std::string_view witness_kind_name(WitnessKind k) {
  switch (k) {
    case WitnessKind::kEquivocation: return "equivocation";
    case WitnessKind::kCommitMismatch: return "commit-mismatch";
    case WitnessKind::kTimeout: return "timeout";
  }
  return "unknown";
}

bool Accusation::witness_valid() const {
  try {
    switch (kind) {
      case WitnessKind::kEquivocation: {
        const auto w = consensus::EquivocationWitness::deserialize(witness);
        return w.valid(accused);
      }
      case WitnessKind::kCommitMismatch: {
        const auto w = CommitmentMismatchWitness::deserialize(witness);
        return w.valid(accused);
      }
      case WitnessKind::kTimeout:
        return false;  // needs corroboration, not a signature
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

Bytes ImpeachmentCert::approval_payload(const Accusation& a) {
  Writer w;
  w.str("IMPEACH");
  w.bytes(crypto::digest_to_bytes(crypto::sha256(a.serialize())));
  return w.take();
}

bool ImpeachmentCert::verify(const std::vector<crypto::PublicKey>& committee,
                             std::size_t committee_size) const {
  const Bytes expected = approval_payload(accusation);
  std::set<std::uint64_t> committee_keys;
  for (const auto& pk : committee) committee_keys.insert(pk.y);
  std::set<std::uint64_t> signers;
  std::vector<const crypto::SignedMessage*> to_verify;
  to_verify.reserve(approvals.size());
  for (const auto& sm : approvals) {
    if (!committee_keys.contains(sm.signer.y)) return false;
    if (!equal(sm.payload, expected)) return false;
    if (!signers.insert(sm.signer.y).second) return false;
    to_verify.push_back(&sm);
  }
  if (signers.size() * 2 <= committee_size) return false;
  return crypto::verify_batch(to_verify);
}

}  // namespace cyc::protocol
