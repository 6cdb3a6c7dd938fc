#include "protocol/payloads.hpp"

#include <stdexcept>

#include "support/serde.hpp"

namespace cyc::protocol::wire {

MemberListMsg MemberListMsg::deserialize(BytesView b) {
  MemberListMsg m = decode<MemberListMsg>(b);
  if (m.nodes.size() != m.pks.size()) {
    throw std::invalid_argument("MemberListMsg: node and key counts differ");
  }
  return m;
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

}  // namespace cyc::protocol::wire
