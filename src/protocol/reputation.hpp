// Reputation scoring, reward mapping and punishment (§IV-E, §IV-G, §VII).
//
//  * Votes are vectors in {-1, 0, +1}^D (Yes / Unknown / No per listed
//    transaction); a member's score is the cosine similarity between its
//    vote vector and the final decision vector (Eq. 1).
//  * Rewards are distributed proportionally to g(reputation), with
//    g(x) = e^x for x <= 0 and 1 + ln(x+1) for x > 0 (Eq. 2, Fig. 4).
//  * A leader convicted of a protocol violation has its reputation cut to
//    its cube root (§VII-B), which maps to roughly one third of the
//    original mapped value.
#pragma once

#include <cstdint>
#include <vector>

#include "support/serde.hpp"

namespace cyc::protocol {

enum class Vote : std::int8_t {
  kNo = -1,
  kUnknown = 0,
  kYes = 1,
};

using VoteVector = std::vector<Vote>;

}  // namespace cyc::protocol

/// A vote travels as one byte, offset so that kNo is 0.
template <>
inline constexpr int cyc::kEnumOffset<cyc::protocol::Vote> = 1;

namespace cyc::protocol {

/// Eq. 1: cosine similarity between a member's vote and the decision
/// vector, in [-1, 1]. An all-Unknown vote (zero vector) scores 0.
double cosine_score(const VoteVector& vote, const VoteVector& decision);

/// Scores for every member's vote against the decision (the ScoreList the
/// leader assembles in §IV-E).
std::vector<double> score_votes(const std::vector<VoteVector>& votes,
                                const VoteVector& decision);

/// Eq. 2: the monotone mapping from reputation to a positive number.
double g(double reputation);

/// Proportional reward split: member i receives
/// total * g(rep_i) / sum_j g(rep_j). Sums to `total_fee` up to rounding.
std::vector<double> distribute_rewards(const std::vector<double>& reputations,
                                       double total_fee);

/// §VII-B: convicted leader's reputation is decreased to its cube root.
/// (Leaders have the highest reputation, so rep > 1 shrinks; the paper
/// assumes leader reputation is positive.)
double punish_leader(double reputation);

}  // namespace cyc::protocol
