// Schnorr signatures over the order-q subgroup of Z_p^* (Fiat–Shamir via
// SHA-256, deterministic nonces).
//
// This is the digital-signature scheme the protocol assumes in §IV-A
// ("all messages are sent authentically via the digital signature
// scheme"). Signatures are publicly verifiable: anyone holding the public
// key can check them, which the leader re-selection procedure (Alg. 6)
// relies on — a witness is only valid if it contains a message *signed by
// the accused leader* (Claim 4).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/field.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/serde.hpp"

namespace cyc::crypto {

struct PublicKey {
  std::uint64_t y = 0;  ///< g^x mod p

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.y); }
  Bytes serialize() const;
  static PublicKey deserialize(BytesView b);
  bool operator==(const PublicKey&) const = default;
  auto operator<=>(const PublicKey&) const = default;
};

struct SecretKey {
  std::uint64_t x = 0;  ///< scalar in [1, q)
};

struct KeyPair {
  SecretKey sk;
  PublicKey pk;

  /// Deterministic key generation from a seed stream.
  static KeyPair generate(rng::Stream& rng);
  /// Deterministic key generation from a raw seed value.
  static KeyPair from_seed(std::uint64_t seed);
};

struct Signature {
  std::uint64_t r = 0;  ///< commitment R = g^k mod p
  std::uint64_t s = 0;  ///< response s = k + e*x mod q

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.r, s.s); }
  Bytes serialize() const { return encode(*this); }
  static Signature deserialize(BytesView b) { return decode<Signature>(b); }
  bool operator==(const Signature&) const = default;
};

/// Sign `msg` with deterministic nonce k = H(sk || msg) mod q.
Signature sign(const SecretKey& sk, BytesView msg);

/// Verify: g^s == R * y^e (mod p) with e = H(R || y || msg) mod q.
/// Always performs the full check (no memoization) — `verify_cached` /
/// `SignedMessage::valid` are the cached entry points.
bool verify(const PublicKey& pk, BytesView msg, const Signature& sig);

/// Memoized verification for raw (pk, msg, sig) triples — the same
/// verdict cache that backs SignedMessage::valid. Transaction signatures
/// and VRF sortition tickets go through here: every committee member
/// judges the same transactions and every peer checks the same tickets,
/// so each distinct signature is verified once per thread.
bool verify_cached(const PublicKey& pk, BytesView msg, const Signature& sig);

/// Thread-local memoization of verification verdicts, keyed on a digest
/// of the full (signer, payload, signature) content. The same signed
/// object is typically verified by every simulated node that receives it
/// (confirm lists inside certificates, semi-commitments fanned out to
/// referees and partial sets, sortition tickets, transactions); the cache
/// collapses those repeats into one Schnorr verification per distinct
/// content. Verdicts are pure functions of content, so caching cannot
/// change any protocol outcome, and mutating a message changes its key,
/// so stale verdicts are unreachable.
namespace verify_cache {
std::uint64_t hits();
std::uint64_t misses();
/// Drop all entries and zero the counters (tests and long sweeps).
void clear();
}  // namespace verify_cache

/// A (signer, payload, signature) triple — the `SIG_i <...>` objects that
/// appear throughout Algorithms 3–6. `payload` is the canonical serde
/// encoding of the inner message.
struct SignedMessage {
  PublicKey signer;
  Bytes payload;
  Signature sig;

  /// Memoized verification (see verify_cache above).
  bool valid() const;

  /// Content fingerprint used as the cache key.
  std::uint64_t fingerprint() const;

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.signer, s.payload, s.sig); }
  Bytes serialize() const { return encode(*this); }
  static SignedMessage deserialize(BytesView b) {
    return decode<SignedMessage>(b);
  }
  bool operator==(const SignedMessage&) const = default;
};

/// Convenience: build a SignedMessage over `payload`. Signs with the key
/// pair's stored public key rather than recomputing g^x; the signature is
/// identical to sign(keys.sk, payload).
SignedMessage make_signed(const KeyPair& keys, BytesView payload);

/// Batch verification: true iff every message verifies. Uses the
/// small-exponent batching trick — one shared g^S exponentiation plus a
/// short (32-bit) R_i^{z_i} per signature instead of two full-width
/// exponentiations each — and consults / populates the verification
/// cache. When the aggregate check fails the messages are re-verified
/// individually so the cache still ends up with per-message verdicts.
/// The coefficients mix the message contents with a per-process random
/// salt, so signature errors cannot be crafted to cancel in the
/// aggregate.
bool verify_batch(const std::vector<const SignedMessage*>& msgs);

}  // namespace cyc::crypto
