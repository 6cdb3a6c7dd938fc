#include "protocol/payloads.hpp"

#include <gtest/gtest.h>

#include "ledger/shard_map.hpp"
#include "support/serde.hpp"

#include <stdexcept>

namespace cyc::protocol::wire {
namespace {

TEST(Payloads, IntroRoundTrip) {
  const auto keys = crypto::KeyPair::from_seed(1);
  Intro intro;
  intro.node = 17;
  intro.pk = keys.pk;
  intro.ticket = crypto_sort(keys, 1, crypto::sha256(bytes_of("r")), 4);
  const auto back = Intro::deserialize(intro.serialize());
  EXPECT_EQ(back.node, 17u);
  EXPECT_EQ(back.pk, keys.pk);
  EXPECT_EQ(back.ticket.committee, intro.ticket.committee);
  EXPECT_EQ(back.ticket.proof, intro.ticket.proof);
}

TEST(Payloads, MemberListRoundTrip) {
  MemberListMsg m;
  m.nodes = {1, 2, 3};
  m.pks = {crypto::KeyPair::from_seed(1).pk, crypto::KeyPair::from_seed(2).pk,
           crypto::KeyPair::from_seed(3).pk};
  const auto back = MemberListMsg::deserialize(m.serialize());
  EXPECT_EQ(back.nodes, m.nodes);
  EXPECT_EQ(back.pks, m.pks);
}

TEST(Payloads, ConsensusEnvelopeRoundTrip) {
  ConsensusEnvelope env{3, 12345, bytes_of("inner wire")};
  const auto back = ConsensusEnvelope::deserialize(env.serialize());
  EXPECT_EQ(back.scope, 3u);
  EXPECT_EQ(back.sn, 12345u);
  EXPECT_EQ(back.wire, env.wire);
}

TEST(Payloads, VoteVecRoundTrip) {
  const VoteVector votes = {Vote::kYes, Vote::kNo, Vote::kUnknown,
                            Vote::kYes};
  EXPECT_EQ(decode_vote_vec(encode_vote_vec(votes)), votes);
  EXPECT_TRUE(decode_vote_vec(encode_vote_vec({})).empty());
}

ledger::Transaction sample_tx(std::uint64_t seed) {
  const auto a = crypto::KeyPair::from_seed(seed);
  const auto b = crypto::KeyPair::from_seed(seed + 1);
  ledger::Transaction tx;
  tx.spender = a.pk;
  tx.inputs.push_back(
      ledger::OutPoint{crypto::sha256(be64(seed)), 0});
  tx.outputs.push_back(ledger::TxOut{b.pk, 42});
  ledger::sign_tx(tx, a.sk);
  return tx;
}

TEST(Payloads, TxVecRoundTrip) {
  std::vector<ledger::Transaction> txs = {sample_tx(10), sample_tx(20)};
  const auto back = decode_tx_vec(encode_tx_vec(txs));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], txs[0]);
  EXPECT_EQ(back[1], txs[1]);
}

TEST(Payloads, IntraDecisionRoundTrip) {
  IntraDecision d;
  d.committee = 2;
  d.attempt = 1;
  d.txdec_set = {sample_tx(30)};
  d.vlist_digest = crypto::sha256(bytes_of("votes"));
  const auto back = IntraDecision::deserialize(d.serialize());
  EXPECT_EQ(back.committee, 2u);
  EXPECT_EQ(back.attempt, 1u);
  ASSERT_EQ(back.txdec_set.size(), 1u);
  EXPECT_EQ(back.txdec_set[0], d.txdec_set[0]);
  EXPECT_EQ(back.vlist_digest, d.vlist_digest);
}

TEST(Payloads, IntraDecisionBadTagThrows) {
  EXPECT_THROW(IntraDecision::deserialize(bytes_of("bogus")), std::exception);
}

TEST(Payloads, CrossTxListRoundTripAndAgreedPayload) {
  CrossTxListMsg m;
  m.origin = 0;
  m.dest = 2;
  m.attempt = 1;
  m.txs = {sample_tx(40)};
  m.origin_cert = bytes_of("cert");
  m.origin_members = {crypto::KeyPair::from_seed(50).pk};
  const auto back = CrossTxListMsg::deserialize(m.serialize());
  EXPECT_EQ(back.origin, m.origin);
  EXPECT_EQ(back.dest, m.dest);
  EXPECT_EQ(back.txs, m.txs);
  EXPECT_EQ(back.origin_cert, m.origin_cert);
  EXPECT_EQ(back.origin_members, m.origin_members);
  // The agreed payload is independent of the attached cert/members —
  // that is exactly what the origin committee signed.
  CrossTxListMsg stripped = m;
  stripped.origin_cert.clear();
  stripped.origin_members.clear();
  EXPECT_EQ(stripped.agreed_payload(), m.agreed_payload());
}

TEST(Payloads, CrossResultAcceptanceBinding) {
  CrossResultMsg r;
  r.request.origin = 1;
  r.request.dest = 3;
  r.request.txs = {sample_tx(60)};
  const Bytes acc1 = r.acceptance_payload();
  r.request.txs.push_back(sample_tx(70));
  const Bytes acc2 = r.acceptance_payload();
  EXPECT_NE(acc1, acc2);  // acceptance binds the exact request content
}

TEST(Payloads, ScoreListRoundTrip) {
  ScoreListMsg m;
  m.committee = 1;
  m.entries = {{4, 1.0}, {5, -0.5}, {6, 0.0}};
  const auto back = ScoreListMsg::deserialize(m.serialize());
  EXPECT_EQ(back.committee, 1u);
  EXPECT_EQ(back.entries, m.entries);
}

TEST(Payloads, NewLeaderRoundTrip) {
  NewLeaderMsg m;
  m.committee = 3;
  m.evicted = crypto::KeyPair::from_seed(80).pk;
  m.new_leader = crypto::KeyPair::from_seed(81).pk;
  const auto back = NewLeaderMsg::deserialize(m.serialize());
  EXPECT_EQ(back.committee, 3u);
  EXPECT_EQ(back.evicted, m.evicted);
  EXPECT_EQ(back.new_leader, m.new_leader);
}

TEST(Payloads, BlockRoundTrip) {
  BlockMsg m;
  m.round = 9;
  m.txs = {sample_tx(90)};
  m.randomness = crypto::sha256(bytes_of("rand"));
  m.body_root = crypto::sha256(bytes_of("root"));
  const auto back = BlockMsg::deserialize(m.serialize());
  EXPECT_EQ(back.round, 9u);
  EXPECT_EQ(back.txs, m.txs);
  EXPECT_EQ(back.randomness, m.randomness);
  EXPECT_EQ(back.body_root, m.body_root);
}

TEST(Payloads, PowRoundTrip) {
  PowMsg m;
  m.node = 5;
  m.pk = crypto::KeyPair::from_seed(100).pk;
  m.nonce = 777;
  m.digest = crypto::sha256(bytes_of("pow"));
  const auto back = PowMsg::deserialize(m.serialize());
  EXPECT_EQ(back.node, 5u);
  EXPECT_EQ(back.pk, m.pk);
  EXPECT_EQ(back.nonce, 777u);
  EXPECT_EQ(back.digest, m.digest);
}

TEST(Payloads, CertifiedResultRoundTrip) {
  CertifiedResult r{bytes_of("payload"), bytes_of("cert")};
  const auto back = CertifiedResult::deserialize(r.serialize());
  EXPECT_EQ(back.payload, r.payload);
  EXPECT_EQ(back.cert, r.cert);
}

TEST(Payloads, SemiCommitRoundTrip) {
  const auto leader = crypto::KeyPair::from_seed(110);
  SemiCommitMsg m;
  m.committee = 2;
  m.commitment_msg = crypto::make_signed(leader, bytes_of("commit"));
  m.list_msg = crypto::make_signed(leader, bytes_of("list"));
  const auto back = SemiCommitMsg::deserialize(m.serialize());
  EXPECT_EQ(back.committee, 2u);
  EXPECT_EQ(back.commitment_msg, m.commitment_msg);
  EXPECT_EQ(back.list_msg, m.list_msg);
}

TEST(Payloads, SemiCommitAckRoundTrip) {
  SemiCommitAck a;
  a.committee = 1;
  a.commitment = crypto::sha256(bytes_of("c"));
  const auto back = SemiCommitAck::deserialize(a.serialize());
  EXPECT_EQ(back.committee, 1u);
  EXPECT_EQ(back.commitment, a.commitment);
}

TEST(Payloads, SemiCommitBatchRoundTrip) {
  SemiCommitBatch b;
  b.entries = {{0, crypto::sha256(bytes_of("c0"))},
               {3, crypto::sha256(bytes_of("c3"))}};
  EXPECT_EQ(SemiCommitBatch::deserialize(b.serialize()).entries, b.entries);
  EXPECT_TRUE(SemiCommitBatch::deserialize(SemiCommitBatch{}.serialize())
                  .entries.empty());
}

// Forged element counts with no elements behind them must fail as
// truncated reads, not as huge reserves.
TEST(Payloads, MemberListForgedCountThrowsOutOfRange) {
  Writer w;
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(MemberListMsg::deserialize(w.out()), std::out_of_range);
}

TEST(Payloads, MemberListCountMismatchThrows) {
  // Two keys but no node ids: a receiver must not index nodes by the
  // key count.
  MemberListMsg m;
  m.pks = {crypto::KeyPair::from_seed(1).pk, crypto::KeyPair::from_seed(2).pk};
  EXPECT_THROW(MemberListMsg::deserialize(m.serialize()),
               std::invalid_argument);
  m.nodes = {1, 2, 3};
  EXPECT_THROW(MemberListMsg::deserialize(m.serialize()),
               std::invalid_argument);
}

TEST(Payloads, PublicKeyListForgedCountThrowsOutOfRange) {
  Writer w;
  w.u32(0);            // no node ids
  w.u32(0xFFFFFFFFu);  // but "4 billion" keys
  EXPECT_THROW(MemberListMsg::deserialize(w.out()), std::out_of_range);
}

TEST(Payloads, SemiCommitBatchForgedCountThrowsOutOfRange) {
  // One real entry behind a count of 2^32 - 1: the decoder must fail on
  // the missing second entry, not reserve for the claimed count.
  Writer w;
  w.u32(0xFFFFFFFFu);
  w.u32(0);
  w.bytes(crypto::digest_to_bytes(crypto::sha256(bytes_of("c"))));
  EXPECT_THROW(SemiCommitBatch::deserialize(w.out()), std::out_of_range);
}

TEST(Payloads, TxVecForgedCountThrowsOutOfRange) {
  Writer w;
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(decode_tx_vec(w.out()), std::out_of_range);
}

TEST(Payloads, VoteVecForgedCountThrowsOutOfRange) {
  Writer w;
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(decode_vote_vec(w.out()), std::out_of_range);
}

TEST(Payloads, ScoreListForgedCountThrowsOutOfRange) {
  Writer w;
  w.str("SCORE_LIST");
  w.u32(0);
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(ScoreListMsg::deserialize(w.out()), std::out_of_range);
}

// The reserve bound of every decoded vector is derived from its element's
// field list; these are the per-element minimums the hand-written
// decoders used to spell out.
TEST(Payloads, DerivedElementMinimumsMatchFormerConstants) {
  crypto::SignedMessage sm;
  EXPECT_EQ(min_bytes(nested(sm)), 32u);
  EXPECT_EQ(min_bytes(crypto::Digest{}), 36u);
  EXPECT_EQ(min_bytes(ledger::Transaction{}), 40u);
  EXPECT_EQ(min_bytes(crypto::PublicKey{}), 8u);
  EXPECT_EQ(min_bytes(std::uint32_t{}), 4u);
  EXPECT_EQ(min_bytes(ledger::AccountMove{}), 16u);
  EXPECT_EQ(min_bytes(Vote::kNo), 1u);
  EXPECT_EQ(min_bytes(ScoreEntry{}), 12u);
}

}  // namespace
}  // namespace cyc::protocol::wire
