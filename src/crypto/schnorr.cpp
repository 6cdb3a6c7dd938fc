#include "crypto/schnorr.hpp"

#include <random>
#include <unordered_map>

namespace cyc::crypto {

namespace {

// A 64-bit digest prefix reduced mod the 60-bit q has negligible bias for
// the simulation-security level we target. These helpers hash the same
// byte streams as the original sha256_concat formulations but without any
// intermediate heap allocations — signing and verifying are the single
// hottest hash consumers in a simulation round.
std::uint64_t nonce_scalar(const SecretKey& sk, BytesView msg) {
  Sha256 ctx;
  ctx.update("cyc.nonce");
  ctx.update_u64(sk.x);
  ctx.update(msg);
  return digest_prefix_u64(ctx.finalize()) % kQ;
}

std::uint64_t challenge_scalar(std::uint64_t r, std::uint64_t y,
                               BytesView msg) {
  Sha256 ctx;
  ctx.update("cyc.chal");
  ctx.update_u64(r);
  ctx.update_u64(y);
  ctx.update(msg);
  return digest_prefix_u64(ctx.finalize()) % kQ;
}

// Thread-local verdict cache. Bounded so unbounded sweeps cannot grow it
// without limit; a full wipe on overflow keeps the policy deterministic.
constexpr std::size_t kCacheMaxEntries = 1u << 20;
struct VerdictCache {
  std::unordered_map<std::uint64_t, bool> verdicts;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
thread_local VerdictCache t_cache;

/// The challenge scalar of the verification equation.
std::uint64_t challenge(const PublicKey& pk, BytesView msg,
                        const Signature& sig) {
  return challenge_scalar(sig.r, pk.y, msg);
}

/// Structural sanity shared by single and batch verification.
bool shape_ok(const PublicKey& pk, const Signature& sig) {
  return in_group(pk.y) && in_group(sig.r) && sig.s < kQ;
}

/// Cache key: digest over the full (signer, signature, message) content.
std::uint64_t content_fp(const PublicKey& pk, BytesView msg,
                         const Signature& sig) {
  Sha256 ctx;
  ctx.update("cyc.sm.fp");
  ctx.update_u64(pk.y);
  ctx.update_u64(sig.r);
  ctx.update_u64(sig.s);
  ctx.update(msg);
  return digest_prefix_u64(ctx.finalize());
}

}  // namespace

namespace verify_cache {

std::uint64_t hits() { return t_cache.hits; }
std::uint64_t misses() { return t_cache.misses; }
void clear() { t_cache = VerdictCache{}; }

}  // namespace verify_cache

Bytes PublicKey::serialize() const { return be64(y); }

PublicKey PublicKey::deserialize(BytesView b) { return PublicKey{read_be64(b)}; }

KeyPair KeyPair::generate(rng::Stream& rng) {
  SecretKey sk{1 + rng.below(kQ - 1)};
  return KeyPair{sk, PublicKey{g_pow(sk.x)}};
}

KeyPair KeyPair::from_seed(std::uint64_t seed) {
  rng::Stream stream(seed);
  return generate(stream);
}

namespace {

/// Schnorr signature under sk whose public key y = g^x the caller supplies.
Signature sign_with(const SecretKey& sk, const PublicKey& pk, BytesView msg) {
  std::uint64_t k = nonce_scalar(sk, msg);
  if (k == 0) k = 1;  // k must be a unit; probability 1/q, handled anyway
  const std::uint64_t r = g_pow(k);
  const std::uint64_t e = challenge_scalar(r, pk.y, msg);
  const std::uint64_t s = add_q(k, mul_q(e, sk.x));
  return Signature{r, s};
}

}  // namespace

Signature sign(const SecretKey& sk, BytesView msg) {
  return sign_with(sk, PublicKey{g_pow(sk.x)}, msg);
}

bool verify(const PublicKey& pk, BytesView msg, const Signature& sig) {
  if (!shape_ok(pk, sig)) return false;
  const std::uint64_t e = challenge(pk, msg, sig);
  const std::uint64_t lhs = g_pow(sig.s);
  const std::uint64_t rhs = gmul(sig.r, gpow(pk.y, e));
  return lhs == rhs;
}

bool verify_cached(const PublicKey& pk, BytesView msg, const Signature& sig) {
  const std::uint64_t fp = content_fp(pk, msg, sig);
  auto it = t_cache.verdicts.find(fp);
  if (it != t_cache.verdicts.end()) {
    ++t_cache.hits;
    return it->second;
  }
  ++t_cache.misses;
  const bool ok = verify(pk, msg, sig);
  if (t_cache.verdicts.size() >= kCacheMaxEntries) t_cache.verdicts.clear();
  t_cache.verdicts.emplace(fp, ok);
  return ok;
}

std::uint64_t SignedMessage::fingerprint() const {
  return content_fp(signer, payload, sig);
}

bool SignedMessage::valid() const {
  return verify_cached(signer, payload, sig);
}

bool verify_batch(const std::vector<const SignedMessage*>& msgs) {
  // Resolve what we can from the cache first.
  std::vector<const SignedMessage*> unknown;
  std::vector<std::uint64_t> unknown_fp;
  bool all_ok = true;
  for (const SignedMessage* sm : msgs) {
    const std::uint64_t fp = sm->fingerprint();
    auto it = t_cache.verdicts.find(fp);
    if (it != t_cache.verdicts.end()) {
      ++t_cache.hits;
      all_ok = all_ok && it->second;
    } else {
      unknown.push_back(sm);
      unknown_fp.push_back(fp);
    }
  }
  auto fallback = [&] {
    bool ok = true;
    for (const SignedMessage* sm : unknown) ok = sm->valid() && ok;
    return ok;
  };
  if (!all_ok) {
    // Already lost, but still resolve (and cache) the unknown verdicts so
    // later flushes of the same messages stay cache hits.
    fallback();
    return false;
  }
  if (unknown.empty()) return true;
  if (unknown.size() == 1) return unknown.front()->valid();

  // Aggregate check: g^{sum z_i s_i} == prod R_i^{z_i} * y_i^{e_i z_i}.
  // z_i are 32-bit coefficients mixed from the content fingerprints and a
  // per-process random salt. The salt keeps the coefficients unpredictable
  // to anyone crafting signatures, so tampered-signature errors cannot be
  // arranged to cancel in the aggregate — which matters because a batch
  // pass is cached as a per-message verdict. The salt never changes
  // verdicts on well-formed input (valid signatures satisfy the aggregate
  // for every z; failed aggregates fall back to individual checks), so
  // simulation determinism is unaffected.
  static const std::uint64_t kBatchSalt = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  std::uint64_t s_acc = 0;
  std::uint64_t rhs = 1;
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    const SignedMessage& sm = *unknown[i];
    if (!shape_ok(sm.signer, sm.sig)) return fallback();
    const std::uint64_t z =
        (rng::mix(unknown_fp[i] ^ kBatchSalt ^
                  (0x9e3779b97f4a7c15ull * (i + 1))) &
         0xffffffffull) |
        1ull;
    const std::uint64_t e = challenge(sm.signer, sm.payload, sm.sig);
    s_acc = add_q(s_acc, mul_q(z, sm.sig.s));
    const std::uint64_t term =
        gmul(gpow(sm.sig.r, z), gpow(sm.signer.y, mul_q(e, z)));
    rhs = gmul(rhs, term);
  }
  if (g_pow(s_acc) != rhs) {
    // Some signature is bad (or an astronomically unlikely coefficient
    // cancellation): identify per-message and cache the verdicts.
    return fallback();
  }
  ++t_cache.misses;  // one real multi-exponentiation for the whole batch
  if (t_cache.verdicts.size() + unknown.size() > kCacheMaxEntries) {
    t_cache.verdicts.clear();
  }
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    t_cache.verdicts.emplace(unknown_fp[i], true);
  }
  return true;
}

SignedMessage make_signed(const KeyPair& keys, BytesView payload) {
  SignedMessage m;
  m.signer = keys.pk;
  m.payload = Bytes(payload.begin(), payload.end());
  m.sig = sign_with(keys.sk, keys.pk, payload);
  return m;
}

}  // namespace cyc::crypto
