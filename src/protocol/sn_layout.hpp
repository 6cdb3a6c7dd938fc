// Sequence-number layout of the engine's Algorithm 3 instances
// (internal to src/protocol).
//
// Every instance in a round is keyed by (scope, sn); the paper requires
// sn to be unique and monotone per instance, and attempts after a
// recovery get fresh numbers. Committee scope (scope < m) and the referee
// scope (scope == m) use separate layouts. Attempts and committee indices
// packed into a range are spaced by kSlot.
#pragma once

#include <cstdint>

namespace cyc::protocol::seq {

inline constexpr std::uint64_t kSlot = 16;

// --- committee scope -------------------------------------------------------
inline constexpr std::uint64_t kIntraBase = 100;       // TXdecSET + VList
inline constexpr std::uint64_t kScoreBase = 150;       // ScoreList
inline constexpr std::uint64_t kUtxoBase = 180;        // final UTXO list
inline constexpr std::uint64_t kUtxoEnd = 200;
inline constexpr std::uint64_t kCrossOutBase = 1000;   // TXList_{k,dest}
inline constexpr std::uint64_t kCrossInBase = 100000;  // accept from origin

constexpr std::uint64_t intra(std::uint32_t attempt) {
  return kIntraBase + attempt;
}
constexpr std::uint64_t score(std::uint32_t attempt) {
  return kScoreBase + attempt;
}
constexpr std::uint64_t utxo(std::uint32_t attempt) {
  return kUtxoBase + attempt;
}
constexpr std::uint64_t cross_out(std::uint32_t dest, std::uint32_t attempt) {
  return kCrossOutBase + static_cast<std::uint64_t>(dest) * kSlot + attempt;
}
constexpr std::uint64_t cross_in(std::uint32_t origin, std::uint32_t attempt) {
  return kCrossInBase + static_cast<std::uint64_t>(origin) * kSlot + attempt;
}

constexpr bool is_intra(std::uint64_t s) {
  return s >= kIntraBase && s < kScoreBase;
}
constexpr bool is_score(std::uint64_t s) {
  return s >= kScoreBase && s < kUtxoBase;
}
constexpr bool is_utxo(std::uint64_t s) {
  return s >= kUtxoBase && s < kUtxoEnd;
}
constexpr bool is_cross_out(std::uint64_t s) {
  return s >= kCrossOutBase && s < kCrossInBase;
}
constexpr bool is_cross_in(std::uint64_t s) { return s >= kCrossInBase; }
constexpr std::uint32_t cross_out_dest(std::uint64_t s) {
  return static_cast<std::uint32_t>((s - kCrossOutBase) / kSlot);
}
constexpr std::uint32_t cross_in_origin(std::uint64_t s) {
  return static_cast<std::uint32_t>((s - kCrossInBase) / kSlot);
}

// --- referee scope ---------------------------------------------------------
inline constexpr std::uint64_t kBlock = 1;              // block B^r
inline constexpr std::uint64_t kSemiCheckBase = 1000;   // semi-commitment
inline constexpr std::uint64_t kReselectBase = 5000;    // leader re-selection
inline constexpr std::uint64_t kReselectEnd = 100000;

constexpr std::uint64_t semi_check(std::uint32_t k) {
  return kSemiCheckBase + k;
}
constexpr std::uint64_t reselect(std::uint32_t k, std::uint32_t attempt) {
  return kReselectBase + static_cast<std::uint64_t>(k) * kSlot + attempt;
}

constexpr bool is_reselect(std::uint64_t s) {
  return s >= kReselectBase && s < kReselectEnd;
}
constexpr std::uint32_t reselect_committee(std::uint64_t s) {
  return static_cast<std::uint32_t>((s - kReselectBase) / kSlot);
}

}  // namespace cyc::protocol::seq
