#include "crypto/vrf.hpp"

namespace cyc::crypto {

namespace {
Bytes domain_separated(BytesView input) {
  return concat({bytes_of("cyc.vrf"), input});
}
}  // namespace

VrfOutput vrf_prove(const SecretKey& sk, BytesView input) {
  const Bytes msg = domain_separated(input);
  VrfOutput out;
  out.proof = sign(sk, msg);
  out.hash = sha256_concat({bytes_of("cyc.vrf.out"), be64(out.proof.r)});
  return out;
}

bool vrf_verify(const PublicKey& pk, BytesView input, const VrfOutput& out) {
  const Bytes msg = domain_separated(input);
  // Every peer checks the same sortition ticket, so the verdict is cached.
  if (!verify_cached(pk, msg, out.proof)) return false;
  const Digest expected =
      sha256_concat({bytes_of("cyc.vrf.out"), be64(out.proof.r)});
  return expected == out.hash;
}

}  // namespace cyc::crypto
