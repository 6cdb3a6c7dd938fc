// Typed messages for the discrete-event simulator.
//
// Tags cover every message class of §IV (Algorithms 2–6) plus block
// propagation. Payloads are canonical serde encodings produced by the
// protocol layer; the simulator treats them as opaque bytes and accounts
// their size.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "support/bytes.hpp"

namespace cyc::net {

using NodeId = std::uint32_t;
using Time = double;

inline constexpr NodeId kNoNode = ~static_cast<NodeId>(0);

/// Message classes; names follow the paper's tags where it has them.
enum class Tag : std::uint16_t {
  // Committee configuration (Alg. 2)
  kConfig,        // CONFIG: <PK, address>, hash, pi
  kMemberList,    // MEM_LIST: key member's current list
  kMember,        // MEMBER: introduction to peers on the list
  // Inside-committee consensus (Alg. 3)
  kPropose,       // PROPOSE: r, sn, H(M), M
  kEcho,          // ECHO: r, sn, H(M), i  (plus relayed PROPOSE)
  kConfirm,       // CONFIRM: r, sn, H(M), i (plus EchoList)
  // Semi-commitment exchange (Alg. 4)
  kSemiCommit,    // SEMI_COM to referees / partial set
  kSemiCommitAck, // referee relay of accepted semi-commitments
  // Intra-committee consensus (Alg. 5)
  kTxList,        // TX_LIST: r, SIG_l<TXList>
  kVote,          // VOTE: r, SIG_i<VList_i>
  kIntraResult,   // INTRA: r, TXdecSET, VList -> referee
  // Inter-committee consensus
  kCrossTxList,   // consensus'd TXList_{i,j} + member list -> l_j
  kCrossResult,   // C_j's decision back to l_i
  kCrossPartialHint,  // partial-set copy used by the 2-Gamma rule (Lemma 7)
  // Reputation
  kScoreReport,   // agreed ScoreList -> referee
  // Recovery (Alg. 6)
  kAccuse,        // witness broadcast to committee
  kImpeachVote,   // member vote on the impeachment
  kProsecute,     // witness + Cert -> referee
  kNewLeader,     // NEW: referee announces replacement
  // Selection & block (§IV-F/G)
  kPowSolution,   // participant registration
  kBlock,         // block B^r propagation
  kUtxoHandoff,   // final UTXO / remaining-tx lists -> new partial sets
  kBeaconShare,   // PVSS beacon traffic within C_R
  // §VIII extensions
  kPreCommQuery,  // VIII-A: l_i asks l_j which candidate txs are valid
  kPreCommReply,  // VIII-A: l_j's preference
  kBlockPermit,   // VIII-B: referee permission for a leader sub-block
  kSubBlock,      // VIII-B: leader-broadcast sub-block
  // Crash-recovery catch-up (restarted node replays honest state)
  kCatchUpRequest,  // restarted node asks referees for the shard state
  kCatchUpReply,    // referee's signed state snapshot digest + payload
};

/// Number of message classes (for per-tag counter arrays).
inline constexpr std::size_t kTagCount =
    static_cast<std::size_t>(Tag::kCatchUpReply) + 1;

std::string_view tag_name(Tag tag);

/// Shared, immutable payload buffer. A logical broadcast materialises its
/// payload once and every queued copy / delivered Message aliases the same
/// buffer — the simulator and all receivers treat payloads as read-only.
using PayloadPtr = std::shared_ptr<const Bytes>;

/// Wrap a byte string into a shared payload buffer. This is the single
/// choke point where payload memory is allocated; the counters below make
/// the zero-copy invariant ("one allocation per logical broadcast")
/// testable. Counters are thread-local so concurrent sweep workers (one
/// Engine per thread) account independently.
PayloadPtr make_payload(Bytes b);

/// Payload buffers allocated on this thread since it started.
std::uint64_t payload_allocations();
/// Total payload bytes allocated on this thread since it started.
std::uint64_t payload_bytes_allocated();

struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Tag tag = Tag::kConfig;
  PayloadPtr body;  ///< shared with every other copy of this broadcast

  /// Read-only view of the payload (empty if no body was attached).
  const Bytes& payload() const;

  /// Wire size used for byte accounting: payload plus a fixed header.
  std::size_t wire_size() const { return payload().size() + 16; }
};

}  // namespace cyc::net
