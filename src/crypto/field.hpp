// Prime-field and group arithmetic for the simulation-grade signature /
// VRF / PVSS schemes.
//
// We work in the order-q subgroup of Z_p^* where p = 2q+1 is a safe prime
// just below 2^61 and g = 4 generates the subgroup. The 61-bit modulus
// keeps every product inside unsigned __int128, so arithmetic is exact.
// This substitutes for a production elliptic-curve group; the protocol
// only relies on the group structure (see DESIGN.md §3).
//
// Kernel. Both moduli are pseudo-Mersenne: p = 2^61 - 2373 and
// q = 2^60 - 1187. A single product mod p (or q) folds its high half back
// in with 2^61 = 2373 (mod p) (or 2^60 = 1187 (mod q)) twice and ends
// with one conditional subtraction, instead of a generic 128-bit
// division. Exponentiation chains (powmod, gpow, inv_mod_q) run in
// Montgomery form with R = 2^64 and lazy reduction: values stay below 2m
// between steps, and only the result is fully reduced. g^e multiplies at
// most 15 entries of a compile-time 16x16 fixed-base window table
// g^(j * 16^i). Subgroup membership is the Legendre symbol (x / p) by
// the binary Jacobi algorithm: for the safe prime p = 2q + 1 the order-q
// subgroup is exactly the quadratic residues, so (x / p) = 1 iff
// x^q = 1. Every result is bit-identical to plain square-and-multiply
// over `unsigned __int128 %`; other moduli, and mulmod operands not
// already reduced, take that generic path.
#pragma once

#include <cstdint>

namespace cyc::crypto {

/// Safe prime p = 2q + 1 (61 bits).
inline constexpr std::uint64_t kP = 2305843009213691579ull;
/// Prime subgroup order q = (p-1)/2.
inline constexpr std::uint64_t kQ = 1152921504606845789ull;
/// Generator of the order-q subgroup (g = 2^2 mod p).
inline constexpr std::uint64_t kG = 4ull;

/// (a * b) mod m using 128-bit intermediates.
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m);

/// (base ^ exp) mod m by square-and-multiply.
std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m);

/// Modular inverse in the scalar field Z_q (q prime), via Fermat.
/// Requires a != 0 (mod q).
std::uint64_t inv_mod_q(std::uint64_t a);

/// Scalar (exponent) arithmetic mod q.
std::uint64_t add_q(std::uint64_t a, std::uint64_t b);
std::uint64_t sub_q(std::uint64_t a, std::uint64_t b);
std::uint64_t mul_q(std::uint64_t a, std::uint64_t b);

/// Group exponentiation g^e mod p for the standard generator.
std::uint64_t g_pow(std::uint64_t e);

/// Group operations mod p.
std::uint64_t gmul(std::uint64_t a, std::uint64_t b);
std::uint64_t gpow(std::uint64_t base, std::uint64_t e);

/// True iff x is a member of the order-q subgroup (x != 0 and x^q == 1).
bool in_group(std::uint64_t x);

/// Miller-Rabin primality check (deterministic for 64-bit inputs). Used by
/// tests to validate the hard-coded parameters.
bool is_probable_prime(std::uint64_t n);

}  // namespace cyc::crypto
