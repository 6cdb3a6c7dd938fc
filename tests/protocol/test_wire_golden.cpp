// Golden wire encodings: the SHA-256 of one fixed instance of every wire
// type, pinned across commits. The trace goldens and the BENCH artifacts
// count bytes, not content, so a layout change that keeps every size
// (swapped fields, a different enum offset) would pass them; it fails
// here. Each instance must also survive decode + re-encode unchanged, and
// every strict prefix of its encoding must fail to decode. A deliberate
// layout change updates the digests below and says so in CHANGES.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "consensus/engine.hpp"
#include "consensus/types.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/vrf.hpp"
#include "epoch/handoff.hpp"
#include "epoch/rebalance.hpp"
#include "ledger/block.hpp"
#include "ledger/types.hpp"
#include "protocol/payloads.hpp"
#include "protocol/semicommit.hpp"
#include "protocol/witness.hpp"
#include "support/serde.hpp"

namespace cyc {
namespace {

using Roundtrip = std::function<Bytes(BytesView)>;

/// Decode with T::deserialize and encode the result again.
template <class T>
Roundtrip via() {
  return [](BytesView b) { return T::deserialize(b).serialize(); };
}

std::string digest_hex(BytesView b) {
  const crypto::Digest d = crypto::sha256(b);
  return to_hex(BytesView(d.data(), d.size()));
}

/// Pins `wire`'s digest, checks that it survives `roundtrip` unchanged and
/// that every strict prefix (except `decodable_prefix`) fails to decode.
void check_wire(const std::string& name, const Bytes& wire,
                const Roundtrip& roundtrip, const std::string& digest,
                std::optional<std::size_t> decodable_prefix = std::nullopt) {
  SCOPED_TRACE(name);
  EXPECT_EQ(digest_hex(wire), digest);
  EXPECT_EQ(roundtrip(wire), wire);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    if (len == decodable_prefix) continue;
    EXPECT_THROW(roundtrip(BytesView(wire.data(), len)), std::exception)
        << "prefix of " << len << " of " << wire.size() << " bytes";
  }
}

crypto::KeyPair key(std::uint64_t seed) {
  return crypto::KeyPair::from_seed(seed);
}

crypto::Digest h(std::string_view s) { return crypto::sha256(bytes_of(s)); }

ledger::Transaction sample_tx(std::uint64_t seed) {
  const auto a = key(seed);
  ledger::Transaction tx;
  tx.spender = a.pk;
  tx.inputs.push_back(ledger::OutPoint{crypto::sha256(be64(seed)), 3});
  tx.inputs.push_back(ledger::OutPoint{crypto::sha256(be64(seed + 7)), 0});
  tx.outputs.push_back(ledger::TxOut{key(seed + 1).pk, 42});
  tx.outputs.push_back(ledger::TxOut{key(seed + 2).pk, 5});
  ledger::sign_tx(tx, a.sk);
  return tx;
}

consensus::Propose sample_propose() {
  consensus::Propose p;
  p.id = {3, 7};
  p.message = bytes_of("agreed message M");
  p.digest = crypto::sha256(p.message);
  return p;
}

consensus::Echo sample_echo(std::uint64_t member) {
  consensus::Echo e;
  e.id = {3, 7};
  e.digest = sample_propose().digest;
  e.member = member;
  e.propose_sig = crypto::make_signed(key(1), sample_propose().signed_part());
  return e;
}

consensus::Confirm sample_confirm() {
  consensus::Confirm c;
  c.id = {3, 7};
  c.digest = sample_propose().digest;
  c.member = 4;
  for (std::uint64_t i : {2u, 5u}) {
    c.echo_list.push_back(
        crypto::make_signed(key(10 + i), sample_echo(i).signed_part()));
  }
  return c;
}

consensus::QuorumCert sample_cert() {
  consensus::QuorumCert qc;
  qc.id = {3, 7};
  qc.digest = sample_propose().digest;
  for (std::uint64_t i : {1u, 4u}) {
    consensus::Confirm c = sample_confirm();
    c.member = i;
    qc.confirms.push_back(crypto::make_signed(key(20 + i), c.signed_part()));
  }
  return qc;
}

consensus::EquivocationWitness sample_equivocation() {
  consensus::Propose other = sample_propose();
  other.message = bytes_of("conflicting M");
  other.digest = crypto::sha256(other.message);
  return {crypto::make_signed(key(1), sample_propose().signed_part()),
          crypto::make_signed(key(1), other.signed_part())};
}

protocol::wire::CrossTxListMsg sample_cross() {
  protocol::wire::CrossTxListMsg m;
  m.origin = 1;
  m.dest = 3;
  m.attempt = 2;
  m.txs = {sample_tx(40), sample_tx(50)};
  m.origin_cert = sample_cert().serialize();
  m.origin_members = {key(60).pk, key(61).pk};
  return m;
}

epoch::RebalancePlan sample_plan() {
  epoch::RebalancePlan plan;
  plan.epoch = 2;
  plan.moves = {{1001, 0, 2}, {2002, 3, 1}};
  plan.map_digest = h("map");
  plan.migrated_outputs = 17;
  return plan;
}

TEST(WireGolden, Crypto) {
  const crypto::Signature sig = crypto::sign(key(1).sk, bytes_of("sig"));
  check_wire("Signature", sig.serialize(), via<crypto::Signature>(),
             "5ea21cf45ee538d203f890e933d568a1836c08ab2142d9fb6f4d98b920d0f25d");
  check_wire("SignedMessage",
             crypto::make_signed(key(2), bytes_of("payload")).serialize(),
             via<crypto::SignedMessage>(),
             "7a6cccca4144430f3a32ce34065ccb745e9cacaf45b932a2c45fd1716310d952");
  check_wire("VrfOutput",
             crypto::vrf_prove(key(3).sk, bytes_of("vrf input")).serialize(),
             via<crypto::VrfOutput>(),
             "e509c7883493a9503fa63ce72e5c77733291d2b01c217532973d5397e48b086c");
  const crypto::MerkleTree tree(
      {bytes_of("a"), bytes_of("b"), bytes_of("c"), bytes_of("d")});
  check_wire("MerkleProof", tree.prove(2).serialize(),
             via<crypto::MerkleProof>(),
             "1003a107dbb4481ae4cbbc4fe3e8ddf5ef3703eb1b51407a8c26efa99d9e8397");
}

TEST(WireGolden, Ledger) {
  check_wire("Transaction", sample_tx(7).serialize(),
             via<ledger::Transaction>(),
             "e340d795beb64cf938086d6568e0f698d1aa1fda9ab5453a0ab957ce003ecf4a");
  const ledger::Block block = ledger::Block::build(
      5, h("prev"), h("rand"), {sample_tx(8), sample_tx(9)});
  check_wire("BlockHeader", block.header.serialize(),
             via<ledger::BlockHeader>(),
             "3267c5e54381a8cb677dbcdca2631ffa01487edab02b141a423082570e623829");
  check_wire("Block", block.serialize(), via<ledger::Block>(),
             "5e433c4192e7de49211bb2faa8f83501c959a005bb880a6d7d9a8b8d8d5993ce");
}

TEST(WireGolden, Consensus) {
  using namespace consensus;
  check_wire("Propose", sample_propose().serialize(), via<Propose>(),
             "4507eb906848689f9ab6c67424002e86b8b3c905df3aa2babcc29cfd0c0a591f");
  check_wire("Echo", sample_echo(2).serialize(), via<Echo>(),
             "d8ad785689d8094f51c10e7dc164f72f0d3e34c96921e95ff871f02aaf48194d");
  check_wire("Confirm", sample_confirm().serialize(), via<Confirm>(),
             "4803454786a7b30146caf8eb301dabc60f28c783c48682a73817bb19c3da72da");
  check_wire("QuorumCert", sample_cert().serialize(), via<QuorumCert>(),
             "15b4f0599a28bac6610bf2eb0cfab5aa4b09ffc040a36cce954914d3387a8844");
  check_wire("EquivocationWitness", sample_equivocation().serialize(),
             via<EquivocationWitness>(),
             "d449b1b987dce6c874d1e665779808647024c3ac7e9195db0e7a9a37ca43eabc");
  const ProposeWire pw{
      crypto::make_signed(key(1), sample_propose().signed_part()),
      sample_propose().message};
  check_wire("ProposeWire", pw.serialize(), via<ProposeWire>(),
             "6d0ce6de41bcd57561fdace35474246d03a27f4607b4db3d658eded66e718a8d");
  const EchoWire ew{crypto::make_signed(key(12), sample_echo(2).signed_part()),
                    sample_echo(2)};
  check_wire("EchoWire", ew.serialize(), via<EchoWire>(),
             "36e97296fa19f3471c8c62a4eddf63853b8656752e809e0e1c8bba8b98ae4e49");
  const ConfirmWire cw{
      crypto::make_signed(key(14), sample_confirm().signed_part()),
      sample_confirm()};
  check_wire("ConfirmWire", cw.serialize(), via<ConfirmWire>(),
             "d3e4bf730c0fbe7c30aedb94fc2e9427c92f34f967df3a28cf91db17fe081f6f");
}

TEST(WireGolden, ProtocolMessages) {
  using namespace protocol::wire;
  const crypto::KeyPair leader = key(30);

  Intro intro;
  intro.node = 17;
  intro.pk = key(31).pk;
  intro.ticket = protocol::crypto_sort(key(31), 1, h("r"), 4);
  check_wire("Intro", intro.serialize(), via<Intro>(),
             "89747ecce4b11e6ecf853b8fa6e8db54e79e355e755eff1441088ee57c416c3a");

  MemberListMsg list;
  list.nodes = {4, 9};
  list.pks = {key(4).pk, key(9).pk};
  check_wire("MemberListMsg", list.serialize(), via<MemberListMsg>(),
             "75a84d94d17e57a12c51f984c9ba5d614154fdc08403b353bd80c250a56b8947");

  const ConsensusEnvelope env{2, 0x0102030405060708ull,
                              sample_propose().serialize()};
  check_wire("ConsensusEnvelope", env.serialize(), via<ConsensusEnvelope>(),
             "c04ce3becc48b959f7b21fe204311e2e859b128b120413ad2b56395909f48b6e");

  SemiCommitMsg semi;
  semi.committee = 2;
  semi.commitment_msg = crypto::make_signed(
      leader, protocol::commitment_payload(3, 2, h("commitment")));
  semi.list_msg = crypto::make_signed(
      leader, protocol::member_list_payload(3, 2, {key(4).pk, key(9).pk}));
  check_wire("SemiCommitMsg", semi.serialize(), via<SemiCommitMsg>(),
             "d2f1d732ce90bb9f4cd4f80e4675f901adf25d70f6837458ed61743027fdd652");

  SemiCommitAck ack;
  ack.committee = 2;
  ack.commitment = h("commitment");
  check_wire("SemiCommitAck", ack.serialize(), via<SemiCommitAck>(),
             "7938c405456b3ff6649ff52833d9d23df3eeba2b6825a67e4af41676ca4a77b0");
  SemiCommitBatch batch;
  batch.entries = {ack, {5, h("other commitment")}};
  check_wire("SemiCommitBatch", batch.serialize(), via<SemiCommitBatch>(),
             "558270712d1dc5b67221c7ea9febcaef16e58c74d2c73d156d6015a53871776d");

  const std::vector<ledger::Transaction> txs = {sample_tx(70), sample_tx(71)};
  check_wire("tx vector", encode_tx_vec(txs),
             [](BytesView b) { return encode_tx_vec(decode_tx_vec(b)); },
             "c67c634eff1b4fa09801a290c434ada72669781ca160a37a9ff2335b57f02d38");
  TxListMsg txlist;
  txlist.committee = 1;
  txlist.attempt = 2;
  txlist.cross = true;
  txlist.signed_list = crypto::make_signed(leader, encode_tx_vec(txs));
  check_wire("TxListMsg", txlist.serialize(), via<TxListMsg>(),
             "8577721fc034b83fa9ada2dbdeaec6f70e2b537469ead83df616352132918e14");

  const protocol::VoteVector votes = {protocol::Vote::kYes,
                                      protocol::Vote::kNo,
                                      protocol::Vote::kUnknown};
  check_wire("vote vector", encode_vote_vec(votes),
             [](BytesView b) { return encode_vote_vec(decode_vote_vec(b)); },
             "c7770073e138b38fddae454f9ca70906546ebe96951c69f4d637b248c076c0da");
  VoteMsg vote;
  vote.committee = 1;
  vote.attempt = 2;
  vote.cross = false;
  vote.signed_vote = crypto::make_signed(key(32), encode_vote_vec(votes));
  check_wire("VoteMsg", vote.serialize(), via<VoteMsg>(),
             "0bfc8d9de8e2f658791b40f0a7918dfe17468ae6bee99482a1cc7beb4caac3de");

  IntraDecision dec;
  dec.committee = 1;
  dec.attempt = 2;
  dec.txdec_set = txs;
  dec.vlist_digest = h("vlist");
  check_wire("IntraDecision", dec.serialize(), via<IntraDecision>(),
             "6493afe45050e1f1d188903b54acd520a0dbde3e74535197b6cc0067dbde5bc4");

  const CertifiedResult result{dec.serialize(), sample_cert().serialize()};
  check_wire("CertifiedResult", result.serialize(), via<CertifiedResult>(),
             "7700e6b4d6767bfc8c28706f6f7a503cc7f1b6be796f4ebcfec9a5e24654afc2");

  check_wire("CrossTxListMsg", sample_cross().serialize(),
             via<CrossTxListMsg>(),
             "3d4aaa097bbc1bd97a03069d6a9f1ac6020a385a1f59a9eea0857c0abd91043e");

  CrossResultMsg cross_result;
  cross_result.request = sample_cross();
  cross_result.dest_cert = sample_cert().serialize();
  cross_result.dest_members = {key(62).pk};
  check_wire("CrossResultMsg", cross_result.serialize(), via<CrossResultMsg>(),
             "a0b464d1a73c0ab24de7727f72db34a26db26294c65e2ec770ebddca82a71699");

  // Built from raw bytes so the instance does not depend on the struct's
  // field names: tag, committee, count, then (node, score) pairs.
  Writer scores;
  scores.str("SCORE_LIST");
  scores.u32(3);
  scores.u32(2);
  scores.u32(11);
  scores.f64(0.75);
  scores.u32(12);
  scores.f64(-0.5);
  const Bytes score_wire =
      ScoreListMsg::deserialize(scores.out()).serialize();
  EXPECT_EQ(score_wire, scores.out());
  check_wire("ScoreListMsg", score_wire, via<ScoreListMsg>(),
             "38f0cd80138609df7fcd3b10e3ed78d93b815acfbf49b0f0a8d2ccecb2b708d6");

  PowMsg pow;
  pow.node = 5;
  pow.pk = key(33).pk;
  pow.nonce = 777;
  pow.digest = h("pow");
  check_wire("PowMsg", pow.serialize(), via<PowMsg>(),
             "9f7d49a0f5e2a32e6eeaf24a94b626bed5f7e99e2a63be13277f62e73c3ee52a");

  NewLeaderMsg nl;
  nl.committee = 3;
  nl.evicted = key(34).pk;
  nl.new_leader = key(35).pk;
  check_wire("NewLeaderMsg", nl.serialize(), via<NewLeaderMsg>(),
             "9e93fdc1c38bb9ce31537b47c42557b09488b6db6ef1043de5721a4af3e26708");

  BlockMsg block;
  block.round = 9;
  block.txs = txs;
  block.randomness = h("rand");
  block.body_root = h("root");
  check_wire("BlockMsg", block.serialize(), via<BlockMsg>(),
             "b58d64e648ae030f9df5ac37fc36c92a6975fcab8f5c5e4fb3c9f53abbfbaf14");
}

TEST(WireGolden, Accountability) {
  using namespace protocol;
  const crypto::KeyPair leader = key(1);

  Accusation acc;
  acc.round = 3;
  acc.committee = 2;
  acc.accused = leader.pk;
  acc.accuser = key(40).pk;
  acc.kind = WitnessKind::kEquivocation;
  acc.witness = sample_equivocation().serialize();
  check_wire("Accusation", acc.serialize(), via<Accusation>(),
             "76b0c656a04411d4e7f91b3d11cb9ee58a7ee71fea836b96f84d309960e78de7");

  ImpeachmentCert cert;
  cert.accusation = acc;
  for (std::uint64_t i : {41u, 42u}) {
    cert.approvals.push_back(
        crypto::make_signed(key(i), ImpeachmentCert::approval_payload(acc)));
  }
  check_wire("ImpeachmentCert", cert.serialize(), via<ImpeachmentCert>(),
             "d1e94003659aaee265cd74ece3ee4901c12639f405bfbf1fbf619b04a43ee927");

  CommitmentMismatchWitness mismatch;
  mismatch.list_msg = crypto::make_signed(
      leader, member_list_payload(3, 2, {key(4).pk, key(9).pk}));
  mismatch.commitment_msg =
      crypto::make_signed(leader, commitment_payload(3, 2, h("forged")));
  check_wire("CommitmentMismatchWitness", mismatch.serialize(),
             via<CommitmentMismatchWitness>(),
             "b6ead21113edbddafdebb22dea2498190b9929871efd1d0b2b3084f2d02e0f85");
}

TEST(WireGolden, Epoch) {
  check_wire("RebalancePlan", sample_plan().serialize(),
             via<epoch::RebalancePlan>(),
             "ae667abd35e2e8ec1f67251759e2c55c8f182853bc39cc88acfdf4097ec4573d");

  epoch::EpochHandoff handoff;
  handoff.epoch = 2;
  handoff.boundary_round = 40;
  handoff.randomness = h("epoch rand");
  handoff.chain_tip = h("tip");
  handoff.chain_height = 39;
  handoff.shard_digests = {h("s0"), h("s1"), h("s2")};
  handoff.carried_txs = 6;
  handoff.carried_digest = h("carried");
  handoff.surviving_reputation = 12.25;
  handoff.members = {0, 1, 2, 5, 8};
  handoff.joined = {8};
  handoff.retired = {3};
  handoff.join_candidates = 4;
  handoff.beacon_disqualified = 1;
  epoch::EpochHandoff without_plan = handoff;
  check_wire("EpochHandoff without plan", without_plan.serialize(),
             via<epoch::EpochHandoff>(),
             "59cb09b967ceff590e8253d0b665ae56c6003f0491ad8f78de557a32ebcc970e");
  handoff.plan = sample_plan();
  // The record without its optional plan tail decodes by design.
  check_wire("EpochHandoff", handoff.serialize(), via<epoch::EpochHandoff>(),
             "d07780ae186cbf399c04c0cd62a1a1dba70c48e2ad26df269d757e85caaeafb6",
             without_plan.serialize().size());
}

}  // namespace
}  // namespace cyc
