#include "consensus/engine.hpp"

namespace cyc::consensus {

// --- LeaderInstance -----------------------------------------------------------

LeaderInstance::LeaderInstance(crypto::KeyPair keys, InstanceId id,
                               Bytes message, std::size_t committee_size)
    : keys_(keys),
      id_(id),
      message_(std::move(message)),
      digest_(crypto::sha256(message_)),
      committee_size_(committee_size) {}

ProposeWire LeaderInstance::make_propose() const {
  Propose p;
  p.id = id_;
  p.digest = digest_;
  p.message = message_;
  ProposeWire wire;
  wire.sig = crypto::make_signed(keys_, p.signed_part());
  wire.message = message_;
  return wire;
}

ProposeWire LeaderInstance::make_equivocating_propose(
    BytesView other_message) const {
  Propose p;
  p.id = id_;
  p.message = Bytes(other_message.begin(), other_message.end());
  p.digest = crypto::sha256(p.message);
  ProposeWire wire;
  wire.sig = crypto::make_signed(keys_, p.signed_part());
  wire.message = p.message;
  return wire;
}

std::optional<QuorumCert> LeaderInstance::on_confirm(const ConfirmWire& wire) {
  if (done_) return std::nullopt;
  if (!wire.sig.valid()) return std::nullopt;
  if (!(wire.body.id == id_) || wire.body.digest != digest_) {
    return std::nullopt;
  }
  // The signature must cover the CONFIRM header of this instance.
  Confirm expected;
  expected.id = wire.body.id;
  expected.digest = wire.body.digest;
  expected.member = wire.body.member;
  if (!equal(wire.sig.payload, expected.signed_part())) return std::nullopt;

  confirms_[wire.sig.signer.y] = wire.sig;
  if (confirms_.size() * 2 > committee_size_) {
    done_ = true;
    QuorumCert cert;
    cert.id = id_;
    cert.digest = digest_;
    cert.confirms.reserve(confirms_.size());
    for (const auto& [key, sm] : confirms_) cert.confirms.push_back(sm);
    return cert;
  }
  return std::nullopt;
}

// --- received messages -------------------------------------------------------

bool ReceivedPropose::signature_valid() const {
  if (!signature_valid_) signature_valid_ = wire_.sig.valid();
  return *signature_valid_;
}

const std::optional<ProposeHeader>& ReceivedPropose::header() const {
  if (!header_) header_ = ProposeHeader::parse(wire_.sig.payload);
  return *header_;
}

bool ReceivedPropose::digest_matches() const {
  if (!digest_matches_) {
    digest_matches_ = header()->digest == crypto::sha256(wire_.message);
  }
  return *digest_matches_;
}

bool ReceivedEcho::signature_valid() const {
  if (!signature_valid_) signature_valid_ = wire_.sig.valid();
  return *signature_valid_;
}

bool ReceivedEcho::signature_binds_body() const {
  if (!signature_binds_body_) {
    signature_binds_body_ = equal(wire_.sig.payload, wire_.body.signed_part());
  }
  return *signature_binds_body_;
}

bool ReceivedEcho::relay_valid() const {
  if (!relay_valid_) relay_valid_ = wire_.body.propose_sig.valid();
  return *relay_valid_;
}

const std::optional<ProposeHeader>& ReceivedEcho::relay_header() const {
  if (!relay_header_) {
    relay_header_ = ProposeHeader::parse(wire_.body.propose_sig.payload);
  }
  return *relay_header_;
}

// --- MemberInstance -----------------------------------------------------------

MemberInstance::MemberInstance(crypto::KeyPair keys,
                               std::uint64_t member_index, InstanceId id,
                               crypto::PublicKey leader,
                               std::size_t committee_size)
    : keys_(keys),
      index_(member_index),
      id_(id),
      leader_(leader),
      committee_size_(committee_size) {}

std::optional<EquivocationWitness> MemberInstance::check_equivocation(
    const crypto::SignedMessage& propose_sig) {
  if (!seen_propose_) return std::nullopt;
  if (equal(seen_propose_->payload, propose_sig.payload)) return std::nullopt;
  EquivocationWitness w;
  w.first = *seen_propose_;
  w.second = propose_sig;
  if (!w.valid(leader_)) return std::nullopt;
  return w;
}

void MemberInstance::echo_once(MemberOutput& out) {
  if (echoed_) return;
  echoed_ = true;
  Echo e;
  e.id = id_;
  e.digest = *digest_;
  e.member = index_;
  e.propose_sig = *seen_propose_;
  EchoWire ew;
  ew.sig = crypto::make_signed(keys_, e.signed_part());
  ew.body = std::move(e);
  // Count our own echo toward the quorum.
  echoes_[keys_.pk.y] = ew.sig;
  out.echo_broadcast = std::move(ew);
}

MemberOutput MemberInstance::on_propose(const ReceivedPropose& propose) {
  MemberOutput out;
  const ProposeWire& wire = propose.wire();
  if (!(wire.sig.signer == leader_) || !propose.signature_valid()) return out;

  // The signed header must name this instance, and H(M) must match M.
  const std::optional<ProposeHeader>& header = propose.header();
  if (!header || !header->tagged || !(header->id == id_)) return out;
  if (!propose.digest_matches()) return out;  // bad digest

  out.witness = check_equivocation(wire.sig);
  if (out.witness) return out;
  if (seen_propose_) return out;  // duplicate of the same propose

  seen_propose_ = wire.sig;
  digest_ = header->digest;
  message_ = wire.message;
  echo_once(out);
  // A committee of size 1 (degenerate, used in tests) can confirm at once.
  MemberOutput confirm = maybe_confirm();
  if (confirm.confirm_to_leader) {
    out.confirm_to_leader = std::move(confirm.confirm_to_leader);
  }
  return out;
}

MemberOutput MemberInstance::on_echo(const ReceivedEcho& echo) {
  MemberOutput out;
  const EchoWire& wire = echo.wire();
  if (!echo.signature_valid()) return out;
  if (!(wire.body.id == id_)) return out;
  if (!echo.signature_binds_body()) return out;

  // The relayed PROPOSE lets us catch a leader who proposed different
  // messages to different members (the paper's "notices that the leader
  // is malicious" condition).
  if (echo.relay_valid() && wire.body.propose_sig.signer == leader_) {
    out.witness = check_equivocation(wire.body.propose_sig);
    if (out.witness) return out;
    if (!seen_propose_) {
      // Learn the proposal header from the relay (we may still lack M,
      // but can echo/confirm on the digest as the paper intends).
      const std::optional<ProposeHeader>& relay = echo.relay_header();
      if (!relay) return out;
      seen_propose_ = wire.body.propose_sig;
      digest_ = relay->digest;
      echo_once(out);
    }
  }

  // Echoes only feed our own CONFIRM, so stop collecting once it is sent.
  if (!confirmed_ && digest_ && wire.body.digest == *digest_) {
    echoes_[wire.sig.signer.y] = wire.sig;
  }

  MemberOutput confirm = maybe_confirm();
  if (confirm.confirm_to_leader) {
    out.confirm_to_leader = std::move(confirm.confirm_to_leader);
  }
  return out;
}

MemberOutput MemberInstance::maybe_confirm() {
  MemberOutput out;
  if (confirmed_ || !seen_propose_ || !digest_) return out;
  if (echoes_.size() * 2 <= committee_size_) return out;

  confirmed_ = true;
  Confirm c;
  c.id = id_;
  c.digest = *digest_;
  c.member = index_;
  c.echo_list.reserve(echoes_.size());
  for (auto& [key, sm] : echoes_) c.echo_list.push_back(std::move(sm));
  echoes_.clear();
  ConfirmWire cw;
  cw.sig = crypto::make_signed(keys_, c.signed_part());
  cw.body = std::move(c);
  out.confirm_to_leader = std::move(cw);
  return out;
}

}  // namespace cyc::consensus
