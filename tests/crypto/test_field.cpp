#include "crypto/field.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "support/rng.hpp"

namespace cyc::crypto {
namespace {

// Reference arithmetic for the kernel exactness tests: the textbook
// square-and-multiply over a generic 128-bit remainder.
std::uint64_t ref_mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * b) %
                                    m);
}

std::uint64_t ref_powmod(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = ref_mulmod(result, base, m);
    base = ref_mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

bool ref_in_group(std::uint64_t x) {
  return x != 0 && x < kP && ref_powmod(x, kQ, kP) == 1;
}

/// Boundary operands for modulus m, including unreduced ones (>= m) that
/// must take the generic path.
std::vector<std::uint64_t> boundaries(std::uint64_t m) {
  return {0,     1,     2,     kQ - 1, kQ,    kQ + 1, kP - 1, kP, kP + 1,
          m - 2, m - 1, m,     m + 1,  2 * m, (1ull << 61) - 1,
          1ull << 63, ~0ull - 1, ~0ull};
}

TEST(Field, ParametersArePrime) {
  EXPECT_TRUE(is_probable_prime(kP));
  EXPECT_TRUE(is_probable_prime(kQ));
  EXPECT_EQ(kP, 2 * kQ + 1);  // safe prime structure
}

TEST(Field, GeneratorHasOrderQ) {
  EXPECT_TRUE(in_group(kG));
  EXPECT_EQ(powmod(kG, kQ, kP), 1u);
  EXPECT_NE(kG, 1u);
}

TEST(Field, MulmodMatchesSmallCases) {
  EXPECT_EQ(mulmod(7, 9, 11), 63 % 11);
  EXPECT_EQ(mulmod(0, 5, 7), 0u);
  // Large operands that would overflow 64-bit multiplication.
  const std::uint64_t a = kP - 1, b = kP - 2;
  // (p-1)(p-2) mod p = (-1)(-2) mod p = 2
  EXPECT_EQ(mulmod(a, b, kP), 2u);
}

TEST(Field, PowmodBasics) {
  EXPECT_EQ(powmod(2, 10, 1000000007), 1024u);
  EXPECT_EQ(powmod(5, 0, 7), 1u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  // Fermat: a^(p-1) = 1 mod p for a != 0
  EXPECT_EQ(powmod(123456789, kP - 1, kP), 1u);
}

TEST(Field, InverseModQ) {
  rng::Stream rng(1);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = 1 + rng.below(kQ - 1);
    EXPECT_EQ(mul_q(a, inv_mod_q(a)), 1u);
  }
}

TEST(Field, ScalarArithmetic) {
  EXPECT_EQ(add_q(kQ - 1, 1), 0u);
  EXPECT_EQ(sub_q(0, 1), kQ - 1);
  EXPECT_EQ(add_q(kQ - 1, kQ - 1), kQ - 2);
  EXPECT_EQ(mul_q(2, kQ - 1), kQ - 2);  // 2(q-1) = 2q-2 = q-2 mod q
  EXPECT_EQ(sub_q(5, 5), 0u);
}

TEST(Field, GroupClosure) {
  rng::Stream rng(2);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t x = g_pow(rng.below(kQ));
    const std::uint64_t y = g_pow(rng.below(kQ));
    EXPECT_TRUE(in_group(x));
    EXPECT_TRUE(in_group(gmul(x, y)));
  }
}

TEST(Field, ExponentHomomorphism) {
  rng::Stream rng(3);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t a = rng.below(kQ), b = rng.below(kQ);
    EXPECT_EQ(gmul(g_pow(a), g_pow(b)), g_pow(add_q(a, b)));
    EXPECT_EQ(gpow(g_pow(a), b), g_pow(mul_q(a, b)));
  }
}

TEST(Field, InGroupRejectsNonMembers) {
  EXPECT_FALSE(in_group(0));
  EXPECT_FALSE(in_group(kP));       // out of range
  EXPECT_FALSE(in_group(kP - 1));   // -1 has order 2, not in subgroup
}

TEST(FieldKernel, MulmodMatchesReferenceAtBoundaries) {
  for (const std::uint64_t m : {kP, kQ}) {
    for (const std::uint64_t a : boundaries(m)) {
      for (const std::uint64_t b : boundaries(m)) {
        EXPECT_EQ(mulmod(a, b, m), ref_mulmod(a, b, m))
            << a << " * " << b << " mod " << m;
      }
    }
  }
  for (const std::uint64_t a : boundaries(kQ)) {
    for (const std::uint64_t b : boundaries(kQ)) {
      EXPECT_EQ(mul_q(a, b), ref_mulmod(a % kQ, b % kQ, kQ));
    }
  }
}

TEST(FieldKernel, MulmodMatchesReferenceOnRandomOperands) {
  rng::Stream rng(11);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t a = rng.below(kP), b = rng.below(kP);
    mismatches += mulmod(a, b, kP) != ref_mulmod(a, b, kP);
    mismatches += gmul(a, b) != ref_mulmod(a, b, kP);
    const std::uint64_t x = rng.below(kQ), y = rng.below(kQ);
    mismatches += mulmod(x, y, kQ) != ref_mulmod(x, y, kQ);
    mismatches += mul_q(x, y) != ref_mulmod(x, y, kQ);
  }
  // Full-width operands exercise mul_q's reduction and mulmod's generic path.
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t a = rng.next(), b = rng.next();
    mismatches += mulmod(a, b, kP) != ref_mulmod(a, b, kP);
    mismatches += mulmod(a, b, kQ) != ref_mulmod(a, b, kQ);
    mismatches += mul_q(a, b) != ref_mulmod(a % kQ, b % kQ, kQ);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FieldKernel, PowmodMatchesReference) {
  rng::Stream rng(12);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t base = rng.next(), exp = rng.next();
    EXPECT_EQ(powmod(base, exp, kP), ref_powmod(base, exp, kP));
    EXPECT_EQ(powmod(base, exp, kQ), ref_powmod(base, exp, kQ));
    EXPECT_EQ(gpow(base % kP, exp), ref_powmod(base % kP, exp % kQ, kP));
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = 1 + rng.below(kQ - 1);
    EXPECT_EQ(inv_mod_q(a), ref_powmod(a, kQ - 2, kQ));
  }
}

TEST(FieldKernel, FixedBaseGPowMatchesReference) {
  for (const std::uint64_t e : std::initializer_list<std::uint64_t>{
           0ull, 1ull, 2ull, 15ull, 16ull, 255ull, 256ull, kQ - 1, kQ, kQ + 1,
           kP - 1, kP, 1ull << 60, (1ull << 60) - 1, ~0ull - 1, ~0ull}) {
    EXPECT_EQ(g_pow(e), ref_powmod(kG, e, kP)) << "e = " << e;
  }
  rng::Stream rng(13);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t e = rng.next();
    ASSERT_EQ(g_pow(e), ref_powmod(kG, e, kP)) << "e = " << e;
    const std::uint64_t small = rng.below(1u << 16);
    ASSERT_EQ(g_pow(small), ref_powmod(kG, small, kP)) << "e = " << small;
  }
}

TEST(FieldKernel, InGroupMatchesReference) {
  for (const std::uint64_t x : std::initializer_list<std::uint64_t>{
           0ull, 1ull, 2ull, 3ull, 4ull, kQ, kP - 2, kP - 1, kP, kP + 1,
           ~0ull}) {
    EXPECT_EQ(in_group(x), ref_in_group(x)) << "x = " << x;
  }
  rng::Stream rng(14);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t member = g_pow(rng.below(kQ));
    // -1 is a non-residue, so p - g^k never lies in the subgroup.
    const std::uint64_t nonmember = kP - member;
    ASSERT_TRUE(in_group(member)) << member;
    ASSERT_FALSE(in_group(nonmember)) << nonmember;
    ASSERT_EQ(in_group(member), ref_in_group(member));
    ASSERT_EQ(in_group(nonmember), ref_in_group(nonmember));
    const std::uint64_t any = rng.next();
    ASSERT_EQ(in_group(any), ref_in_group(any)) << any;
  }
}

TEST(Field, MillerRabinKnownValues) {
  EXPECT_TRUE(is_probable_prime(2));
  EXPECT_TRUE(is_probable_prime(3));
  EXPECT_TRUE(is_probable_prime(1000000007));
  EXPECT_FALSE(is_probable_prime(1));
  EXPECT_FALSE(is_probable_prime(0));
  EXPECT_FALSE(is_probable_prime(561));      // Carmichael number
  EXPECT_FALSE(is_probable_prime(6601));     // Carmichael number
  EXPECT_FALSE(is_probable_prime(1ull << 40));
}

}  // namespace
}  // namespace cyc::crypto
