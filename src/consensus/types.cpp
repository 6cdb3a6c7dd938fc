#include "consensus/types.hpp"

#include <algorithm>

#include "support/serde.hpp"

namespace cyc::consensus {

// --- Propose ---------------------------------------------------------------

Bytes Propose::signed_part() const {
  Writer w;
  w.str("PROPOSE");
  write_field(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  return w.take();
}

std::optional<ProposeHeader> ProposeHeader::parse(BytesView payload) {
  Reader rd(payload);
  try {
    ProposeHeader h;
    h.tagged = rd.str() == "PROPOSE";
    read_field(rd, h.id);
    h.digest = crypto::digest_from_bytes(rd.bytes());
    return h;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// --- Echo ------------------------------------------------------------------

Bytes Echo::signed_part() const {
  Writer w;
  w.str("ECHO");
  write_field(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u64(member);
  return w.take();
}

// --- Confirm ---------------------------------------------------------------

Bytes Confirm::signed_part() const {
  Writer w;
  w.str("CONFIRM");
  write_field(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u64(member);
  return w.take();
}

// --- QuorumCert ------------------------------------------------------------

bool QuorumCert::verify(const std::vector<crypto::PublicKey>& committee,
                        std::size_t committee_size) const {
  // Structural pass: membership, payload binding and distinctness. The
  // (expensive) signature checks run afterwards as one batch. Committees
  // are small, so both key checks are linear scans.
  std::vector<const crypto::SignedMessage*> to_verify;
  to_verify.reserve(confirms.size());
  for (const auto& sm : confirms) {
    if (std::find(committee.begin(), committee.end(), sm.signer) ==
        committee.end()) {
      return false;
    }
    // The signed payload must be the CONFIRM body for our (id, digest).
    Reader rd(sm.payload);
    const std::string tag = rd.str();
    if (tag != "CONFIRM") return false;
    InstanceId got_id;
    read_field(rd, got_id);
    if (!(got_id == id)) return false;
    const crypto::Digest got_digest = crypto::digest_from_bytes(rd.bytes());
    if (got_digest != digest) return false;
    for (const crypto::SignedMessage* seen : to_verify) {
      if (seen->signer == sm.signer) return false;  // duplicate
    }
    to_verify.push_back(&sm);
  }
  if (to_verify.size() * 2 <= committee_size) return false;
  return crypto::verify_batch(to_verify);
}

// --- EquivocationWitness ----------------------------------------------------

bool EquivocationWitness::valid(const crypto::PublicKey& leader) const {
  if (!(first.signer == leader) || !(second.signer == leader)) return false;
  if (!first.valid() || !second.valid()) return false;
  const auto a = ProposeHeader::parse(first.payload);
  const auto b = ProposeHeader::parse(second.payload);
  if (!a || !b || !a->tagged || !b->tagged) return false;
  return a->id == b->id && a->digest != b->digest;
}

}  // namespace cyc::consensus
