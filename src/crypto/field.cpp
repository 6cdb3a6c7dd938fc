#include "crypto/field.hpp"

#include <array>
#include <bit>
#include <initializer_list>

namespace cyc::crypto {

namespace {

// Both moduli are pseudo-Mersenne: p = 2^61 - 2373 and q = 2^60 - 1187.
// Since 2^kBits == kC (mod m), a product x = hi * 2^kBits + lo reduces to
// hi * kC + lo. Two folds bring a product of two reduced operands below
// 2m, and one conditional subtraction finishes the job exactly.
template <std::uint64_t kM, unsigned kBits>
struct PseudoMersenne {
  static constexpr std::uint64_t kC = (std::uint64_t{1} << kBits) - kM;
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  static_assert(kC < (std::uint64_t{1} << 12), "fold bound needs a small c");

  /// (a * b) mod kM for a, b < kM.
  static constexpr std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
    return fold(static_cast<unsigned __int128>(a) * b);
  }

  /// x mod kM for x < 2^(2 kBits). The first fold leaves
  /// hi * kC + lo < 2^(kBits + 13); the second leaves < 2^kBits + 2^26,
  /// which is below 2 kM.
  static constexpr std::uint64_t fold(unsigned __int128 x) {
    const unsigned __int128 y = static_cast<unsigned __int128>(shift(x)) * kC +
                                (static_cast<std::uint64_t>(x) & kMask);
    const std::uint64_t z =
        (static_cast<std::uint64_t>(y) & kMask) + shift(y) * kC;
    return z >= kM ? z - kM : z;
  }

  /// x >> kBits for x < 2^(64 + kBits), from the two 64-bit halves.
  static constexpr std::uint64_t shift(unsigned __int128 x) {
    return (static_cast<std::uint64_t>(x >> 64) << (64 - kBits)) |
           (static_cast<std::uint64_t>(x) >> kBits);
  }
};

// Exponentiation chains run in Montgomery form (R = 2^64) instead: a
// product costs two multiplications and an add, and between steps values
// stay below 2m rather than being fully reduced (lazy reduction), which
// shortens the squaring chain that bounds a modular power.
template <std::uint64_t kM>
struct Montgomery {
  static_assert(kM % 2 == 1 && kM < (std::uint64_t{1} << 62),
                "lazy reduction needs an odd modulus below 2^62");

  /// kM^-1 mod 2^64 by Newton iteration (each step doubles the bits).
  static constexpr std::uint64_t inverse() {
    std::uint64_t x = kM;  // correct to 3 bits for odd kM
    for (int i = 0; i < 5; ++i) x *= 2 - kM * x;
    return x;
  }
  static constexpr std::uint64_t kNegInv = 0 - inverse();
  /// R^2 mod kM, which maps x to x * R (mod kM) through mul().
  static constexpr std::uint64_t kR2 = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) % kM *
      ((static_cast<unsigned __int128>(1) << 64) % kM) % kM);

  /// t / R mod kM, below 2 kM, for t < 4 kM^2.
  static constexpr std::uint64_t redc(unsigned __int128 t) {
    const std::uint64_t m = static_cast<std::uint64_t>(t) * kNegInv;
    return static_cast<std::uint64_t>(
        (t + static_cast<unsigned __int128>(m) * kM) >> 64);
  }
  /// a * b / R mod kM, below 2 kM, for a, b < 2 kM.
  static constexpr std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
    return redc(static_cast<unsigned __int128>(a) * b);
  }
  static constexpr std::uint64_t to(std::uint64_t x) { return mul(x, kR2); }
  /// Leave Montgomery form, fully reduced.
  static constexpr std::uint64_t from(std::uint64_t x) {
    const std::uint64_t r = redc(x);
    return r >= kM ? r - kM : r;
  }

  /// (base ^ exp) mod kM for base < kM.
  static constexpr std::uint64_t pow(std::uint64_t base, std::uint64_t exp) {
    std::uint64_t b = to(base);
    std::uint64_t result = to(1);
    while (exp > 0) {
      if (exp & 1) result = mul(result, b);
      b = mul(b, b);
      exp >>= 1;
    }
    return from(result);
  }
};

using FieldP = PseudoMersenne<kP, 61>;
using FieldQ = PseudoMersenne<kQ, 60>;
static_assert(FieldP::kC == 2373 && FieldQ::kC == 1187);
using MontP = Montgomery<kP>;
using MontQ = Montgomery<kQ>;
static_assert(MontP::inverse() * kP == 1 && MontQ::inverse() * kQ == 1);

// Fixed-base window table for g, in Montgomery form:
// kGTable[i][j] = g^(j * 16^i) * R mod p. An exponent below 2^64 is 16
// nibbles, so g^e is at most 15 products.
constexpr unsigned kWindows = 16;
using GTable = std::array<std::array<std::uint64_t, 16>, kWindows>;

constexpr GTable build_g_table() {
  GTable t{};
  std::uint64_t base = MontP::to(kG);  // g^(16^i)
  for (unsigned i = 0; i < kWindows; ++i) {
    t[i][0] = MontP::to(1);
    for (unsigned j = 1; j < 16; ++j) t[i][j] = MontP::mul(t[i][j - 1], base);
    base = MontP::mul(t[i][15], base);
  }
  return t;
}

constexpr GTable kGTable = build_g_table();

/// Jacobi symbol (a / n) for odd n and a < n, by the binary algorithm.
/// Sign flips accumulate in bit 0 of `flip`. The swap step is computed
/// with masks, because the branch on a < n is unpredictable.
int jacobi(std::uint64_t a, std::uint64_t n) {
  std::uint64_t flip = 0;
  while (a != 0) {
    const int z = std::countr_zero(a);
    a >>= z;
    // (2 / n) = -1 exactly when n = 3 or 5 (mod 8), i.e. bit 1 != bit 2.
    flip ^= static_cast<std::uint64_t>(z) & ((n >> 1) ^ (n >> 2));
    // a and n are odd: (a / n) = (|a - n| / min(a, n)), with a sign flip
    // from reciprocity when a < n and both are 3 mod 4.
    const std::uint64_t diff = a - n;
    const std::uint64_t swap = 0 - static_cast<std::uint64_t>(a < n);
    flip ^= swap & ((a & n) >> 1);
    n += diff & swap;           // min(a, n)
    a = (diff ^ swap) - swap;   // |a - n|
  }
  if (n != 1) return 0;
  return (flip & 1) != 0 ? -1 : 1;
}

}  // namespace

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  if (m == kP && a < kP && b < kP) return FieldP::mul(a, b);
  if (m == kQ && a < kQ && b < kQ) return FieldQ::mul(a, b);
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  if (m == kP) return MontP::pow(base % kP, exp);
  if (m == kQ) return MontQ::pow(base % kQ, exp);
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t inv_mod_q(std::uint64_t a) {
  return MontQ::pow(a % kQ, kQ - 2);
}

std::uint64_t add_q(std::uint64_t a, std::uint64_t b) {
  a %= kQ;
  b %= kQ;
  const std::uint64_t s = a + b;
  return s >= kQ ? s - kQ : s;
}

std::uint64_t sub_q(std::uint64_t a, std::uint64_t b) {
  a %= kQ;
  b %= kQ;
  return a >= b ? a - b : a + kQ - b;
}

std::uint64_t mul_q(std::uint64_t a, std::uint64_t b) {
  return FieldQ::mul(a % kQ, b % kQ);
}

std::uint64_t g_pow(std::uint64_t e) {
  e %= kQ;
  std::uint64_t result = MontP::to(1);
  for (unsigned i = 0; e != 0; ++i, e >>= 4) {
    const unsigned nibble = static_cast<unsigned>(e & 15);
    if (nibble != 0) result = MontP::mul(result, kGTable[i][nibble]);
  }
  return MontP::from(result);
}

std::uint64_t gmul(std::uint64_t a, std::uint64_t b) {
  return mulmod(a, b, kP);
}

std::uint64_t gpow(std::uint64_t base, std::uint64_t e) {
  return MontP::pow(base % kP, e % kQ);
}

bool in_group(std::uint64_t x) {
  if (x == 0 || x >= kP) return false;
  // For the safe prime p = 2q + 1 the order-q subgroup is exactly the
  // quadratic residues, so x^q == 1 iff the Legendre symbol (x / p) is 1.
  return jacobi(x, kP) == 1;
}

bool is_probable_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // These witnesses are deterministic for all 64-bit integers.
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = powmod(a % n, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace cyc::crypto
