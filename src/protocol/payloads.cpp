#include "protocol/payloads.hpp"

#include <stdexcept>

#include "support/serde.hpp"

namespace cyc::protocol::wire {

namespace {

thread_local std::uint64_t t_block_decodes = 0;
thread_local std::uint64_t t_consensus_encodes = 0;
thread_local std::uint64_t t_consensus_decodes = 0;

}  // namespace

MemberListMsg MemberListMsg::deserialize(BytesView b) {
  MemberListMsg m = decode<MemberListMsg>(b);
  if (m.nodes.size() != m.pks.size()) {
    throw std::invalid_argument("MemberListMsg: node and key counts differ");
  }
  return m;
}

Bytes ConsensusEnvelope::serialize() const {
  ++t_consensus_encodes;
  return encode(*this);
}

ConsensusEnvelope ConsensusEnvelope::deserialize(BytesView b) {
  ++t_consensus_decodes;
  return decode<ConsensusEnvelope>(b);
}

Bytes CrossTxListMsg::agreed_payload() const {
  Writer w;
  w.str("CROSS_OUT");
  w.u32(origin);
  w.u32(dest);
  w.u32(attempt);
  w.bytes(encode_tx_vec(txs));
  return w.take();
}

Bytes CrossResultMsg::acceptance_payload() const {
  Writer w;
  w.str("CROSS_IN");
  w.u32(request.origin);
  w.u32(request.dest);
  w.bytes(crypto::sha256_bytes(request.agreed_payload()));
  return w.take();
}

BlockMsg BlockMsg::deserialize(BytesView b) {
  ++t_block_decodes;
  return decode<BlockMsg>(b);
}

std::uint64_t block_decodes() { return t_block_decodes; }

std::uint64_t consensus_encodes() { return t_consensus_encodes; }

std::uint64_t consensus_decodes() { return t_consensus_decodes; }

}  // namespace cyc::protocol::wire
