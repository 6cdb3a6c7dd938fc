// Transaction and UTXO types (problem definition, §III-D).
//
// Users are partitioned into m shards by the hash of their public key
// (`ShardMap`, shard_map.hpp, is the one place that computes it); the
// committee in charge of a shard maintains that shard's UTXO set. A
// transaction is *intra-shard* when all of its inputs and outputs touch a
// single shard, and *cross-shard* otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"

namespace cyc::ledger {

using Amount = std::uint64_t;
using ShardId = std::uint32_t;
using TxId = crypto::Digest;

struct OutPoint {
  TxId tx{};
  std::uint32_t index = 0;

  bool operator==(const OutPoint&) const = default;
  auto operator<=>(const OutPoint&) const = default;
};

/// A transaction id's first eight bytes (ids are SHA-256 digests).
struct TxIdHash {
  std::size_t operator()(const TxId& id) const {
    std::size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | id[static_cast<std::size_t>(i)];
    return h;
  }
};

struct OutPointHash {
  std::size_t operator()(const OutPoint& op) const {
    return TxIdHash{}(op.tx) ^
           (static_cast<std::size_t>(op.index) * 0x9e3779b97f4a7c15ull);
  }
};

struct TxOut {
  crypto::PublicKey owner;
  Amount amount = 0;

  bool operator==(const TxOut&) const = default;
};

/// A UTXO transaction. For simplicity every input of a transaction is
/// owned by the same spender key, which signs the body once; this is the
/// common single-payer case and does not change any protocol behaviour.
struct Transaction {
  std::vector<OutPoint> inputs;
  std::vector<TxOut> outputs;
  crypto::PublicKey spender;
  crypto::Signature sig;

  /// Canonical serialization of the signed body (everything but sig).
  Bytes body_bytes() const;
  Bytes serialize() const;
  static Transaction deserialize(BytesView b);
  /// Smallest length-prefixed encoding in a list: the list's 4-byte
  /// prefix, the body's prefix, its two counts and spender, and the
  /// signature.
  static constexpr std::size_t kMinWireBytes = 4 + 4 + 4 + 4 + 8 + 16;

  /// Transaction id = H(body).
  TxId id() const;

  bool operator==(const Transaction&) const = default;
};

/// Sign the body with the spender's key.
void sign_tx(Transaction& tx, const crypto::SecretKey& sk);

/// Verify the spender's signature over the body.
bool check_tx_signature(const Transaction& tx);

}  // namespace cyc::ledger
