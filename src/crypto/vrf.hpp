// Verifiable Random Function built on deterministic Schnorr.
//
// This implements the VRF interface of Alg. 1 (cryptographic sortition):
//   <hash, pi> <- VRF_SK(input)
// where `hash` is pseudorandom and `pi` lets anyone verify that `hash`
// was correctly derived from (PK, input). Construction: the prover signs
// the domain-separated input with a deterministic nonce; the VRF output
// is H(R) where R is the (unique, deterministic) Schnorr commitment, and
// the proof is the signature itself. Uniqueness of the output for a given
// (SK, input) follows from the deterministic nonce; verifiability follows
// from signature verification plus recomputing H(R).
#pragma once

#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"

namespace cyc::crypto {

struct VrfOutput {
  Digest hash{};        ///< pseudorandom 32-byte output
  Signature proof;      ///< Schnorr signature acting as proof pi

  template <class IO, class Self>
  static void fields(IO& io, Self& s) { io(s.hash, s.proof); }
  Bytes serialize() const { return encode(*this); }
  static VrfOutput deserialize(BytesView b) { return decode<VrfOutput>(b); }
  bool operator==(const VrfOutput&) const = default;
};

/// Evaluate the VRF on `input`.
VrfOutput vrf_prove(const SecretKey& sk, BytesView input);

/// Verify that `out` is the unique VRF output of `pk` on `input`.
bool vrf_verify(const PublicKey& pk, BytesView input, const VrfOutput& out);

}  // namespace cyc::crypto
