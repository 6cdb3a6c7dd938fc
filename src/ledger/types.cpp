#include "ledger/types.hpp"

#include "support/serde.hpp"

namespace cyc::ledger {

Bytes Transaction::body_bytes() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(inputs.size()));
  for (const auto& in : inputs) {
    w.bytes(crypto::digest_to_bytes(in.tx));
    w.u32(in.index);
  }
  w.u32(static_cast<std::uint32_t>(outputs.size()));
  for (const auto& out : outputs) {
    w.u64(out.owner.y);
    w.u64(out.amount);
  }
  w.u64(spender.y);
  return w.take();
}

Bytes Transaction::serialize() const {
  Writer w;
  w.bytes(body_bytes());
  w.u64(sig.r);
  w.u64(sig.s);
  return w.take();
}

Transaction Transaction::deserialize(BytesView b) {
  Reader outer(b);
  const Bytes body = outer.bytes();
  Transaction tx;
  Reader rd(body);
  const std::uint32_t n_in = rd.u32();
  // An input is a length-prefixed 32-byte tx id plus a u32 index.
  tx.inputs.reserve(rd.reservable(n_in, 4 + 32 + 4));
  for (std::uint32_t i = 0; i < n_in; ++i) {
    OutPoint op;
    op.tx = crypto::digest_from_bytes(rd.bytes());
    op.index = rd.u32();
    tx.inputs.push_back(op);
  }
  const std::uint32_t n_out = rd.u32();
  tx.outputs.reserve(rd.reservable(n_out, 8 + 8));
  for (std::uint32_t i = 0; i < n_out; ++i) {
    TxOut out;
    out.owner.y = rd.u64();
    out.amount = rd.u64();
    tx.outputs.push_back(out);
  }
  tx.spender.y = rd.u64();
  tx.sig.r = outer.u64();
  tx.sig.s = outer.u64();
  return tx;
}

TxId Transaction::id() const { return crypto::sha256(body_bytes()); }

void sign_tx(Transaction& tx, const crypto::SecretKey& sk) {
  tx.sig = crypto::sign(sk, tx.body_bytes());
}

bool check_tx_signature(const Transaction& tx) {
  return crypto::verify_cached(tx.spender, tx.body_bytes(), tx.sig);
}

}  // namespace cyc::ledger
