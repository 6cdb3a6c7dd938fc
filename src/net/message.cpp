#include "net/message.hpp"

#include <stdexcept>

namespace cyc::net {

namespace {
thread_local std::uint64_t t_payload_allocs = 0;
thread_local std::uint64_t t_payload_bytes = 0;
thread_local std::uint64_t t_payload_decodes[kTagCount] = {};
const Bytes kEmptyPayload;
}  // namespace

PayloadPtr make_payload(Bytes b) {
  ++t_payload_allocs;
  t_payload_bytes += b.size();
  return std::make_shared<const Payload>(std::move(b));
}

std::uint64_t payload_allocations() { return t_payload_allocs; }
std::uint64_t payload_bytes_allocated() { return t_payload_bytes; }
std::uint64_t payload_decodes(Tag tag) {
  return t_payload_decodes[static_cast<std::size_t>(tag)];
}

std::any& Message::store() const {
  if (!body) throw std::invalid_argument("Message::decoded: no payload");
  ++t_payload_decodes[static_cast<std::size_t>(tag)];
  return body->decoded_;
}

const Bytes& Message::payload() const {
  return body ? body->bytes() : kEmptyPayload;
}

std::string_view tag_name(Tag tag) {
  switch (tag) {
    case Tag::kConfig: return "CONFIG";
    case Tag::kMemberList: return "MEM_LIST";
    case Tag::kMember: return "MEMBER";
    case Tag::kPropose: return "PROPOSE";
    case Tag::kEcho: return "ECHO";
    case Tag::kConfirm: return "CONFIRM";
    case Tag::kSemiCommit: return "SEMI_COM";
    case Tag::kSemiCommitAck: return "SEMI_COM_ACK";
    case Tag::kTxList: return "TX_LIST";
    case Tag::kVote: return "VOTE";
    case Tag::kIntraResult: return "INTRA";
    case Tag::kCrossTxList: return "CROSS_TX";
    case Tag::kCrossResult: return "CROSS_RESULT";
    case Tag::kCrossPartialHint: return "CROSS_HINT";
    case Tag::kScoreReport: return "SCORE_REPORT";
    case Tag::kAccuse: return "ACCUSE";
    case Tag::kImpeachVote: return "IMPEACH_VOTE";
    case Tag::kProsecute: return "PROSECUTE";
    case Tag::kNewLeader: return "NEW_LEADER";
    case Tag::kPowSolution: return "POW";
    case Tag::kBlock: return "BLOCK";
    case Tag::kUtxoHandoff: return "UTXO_HANDOFF";
    case Tag::kBeaconShare: return "BEACON";
    case Tag::kPreCommQuery: return "PRECOMM_Q";
    case Tag::kPreCommReply: return "PRECOMM_R";
    case Tag::kBlockPermit: return "BLOCK_PERMIT";
    case Tag::kSubBlock: return "SUB_BLOCK";
    case Tag::kCatchUpRequest: return "CATCHUP_REQ";
    case Tag::kCatchUpReply: return "CATCHUP_REPLY";
  }
  return "UNKNOWN";
}

}  // namespace cyc::net
