// Tests for the Algorithm 3 state machines, driven without a network:
// messages are shuttled by hand so every rule is observable.
#include "consensus/engine.hpp"

#include <gtest/gtest.h>

namespace cyc::consensus {
namespace {

using crypto::KeyPair;

struct Committee {
  std::vector<KeyPair> keys;
  InstanceId id{1, 42};
  Bytes message = bytes_of("TXdecSET");

  std::vector<crypto::PublicKey> pks;  // the instance roster

  explicit Committee(std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      keys.push_back(KeyPair::from_seed(900 + i));
      pks.push_back(keys.back().pk);
    }
  }

  std::size_t size() const { return keys.size(); }
  const KeyPair& leader_keys() const { return keys[0]; }
};

/// Run a full happy-path round: leader proposes, members echo to all,
/// members confirm, leader collects. Returns the cert if reached.
std::optional<QuorumCert> run_happy_path(Committee& c) {
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  std::vector<MemberInstance> members;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
  }

  const ProposeWire propose = leader.make_propose();
  std::vector<EchoWire> echoes;
  std::vector<ConfirmWire> confirms;
  for (auto& m : members) {
    auto out = m.on_propose(propose);
    EXPECT_FALSE(out.witness.has_value());
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
    // A size-1 committee confirms straight from the proposal.
    if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
  }
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      EXPECT_FALSE(out.witness.has_value());
      if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
    }
  }
  std::optional<QuorumCert> cert;
  for (const auto& confirm : confirms) {
    auto maybe = leader.on_confirm(confirm);
    if (maybe) cert = maybe;
  }
  return cert;
}

TEST(Alg3, HappyPathReachesQuorum) {
  Committee c(5);
  const auto cert = run_happy_path(c);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->digest, crypto::sha256(c.message));
  std::vector<crypto::PublicKey> pks;
  for (const auto& kp : c.keys) pks.push_back(kp.pk);
  EXPECT_TRUE(cert->verify(pks, c.size()));
}

TEST(Alg3, WorksForVariousSizes) {
  for (std::size_t size : {1u, 2u, 3u, 4u, 7u, 10u, 15u}) {
    Committee c(size);
    EXPECT_TRUE(run_happy_path(c).has_value()) << "size=" << size;
  }
}

TEST(Alg3, MemberAcceptsMessageContent) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  member.on_propose(leader.make_propose());
  ASSERT_TRUE(member.accepted_message().has_value());
  EXPECT_EQ(*member.accepted_message(), c.message);
}

TEST(Alg3, NonLeaderProposeIgnored) {
  Committee c(4);
  LeaderInstance impostor(c.keys[2], c.id, c.message, c.pks);
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  auto out = member.on_propose(impostor.make_propose());
  EXPECT_FALSE(out.echo_broadcast.has_value());
  EXPECT_FALSE(out.witness.has_value());
}

TEST(Alg3, BadDigestIgnored) {
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  ProposeWire propose = leader.make_propose();
  propose.message.push_back(0xFF);  // H(M) no longer matches
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  auto out = member.on_propose(propose);
  EXPECT_FALSE(out.echo_broadcast.has_value());
}

TEST(Alg3, WrongInstanceIgnored) {
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), {1, 999}, c.message, c.pks);
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  auto out = member.on_propose(leader.make_propose());
  EXPECT_FALSE(out.echo_broadcast.has_value());
}

TEST(Alg3, NoQuorumWithoutMajority) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  auto out = member.on_propose(leader.make_propose());
  ASSERT_TRUE(out.echo_broadcast.has_value());
  // Only its own echo: 1 of 5 is not > C/2, so no confirm.
  EXPECT_FALSE(out.confirm_to_leader.has_value());
  EXPECT_FALSE(member.has_confirmed());
}

TEST(Alg3, LeaderNeedsMajorityConfirms) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  std::vector<MemberInstance> members;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
  }
  const ProposeWire propose = leader.make_propose();
  std::vector<EchoWire> echoes;
  for (auto& m : members) {
    auto out = m.on_propose(propose);
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
  }
  std::vector<ConfirmWire> confirms;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
    }
  }
  ASSERT_GE(confirms.size(), 3u);
  EXPECT_FALSE(leader.on_confirm(confirms[0]).has_value());
  EXPECT_FALSE(leader.on_confirm(confirms[1]).has_value());
  EXPECT_TRUE(leader.on_confirm(confirms[2]).has_value());  // 3 of 5
}

TEST(Alg3, DuplicateConfirmsNotDoubleCounted) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  const ProposeWire propose = leader.make_propose();
  auto out = member.on_propose(propose);
  std::vector<EchoWire> echoes;
  // Manufacture echoes from all members so member 1 confirms.
  for (std::size_t i = 0; i < c.size(); ++i) {
    MemberInstance other(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
    auto o = other.on_propose(propose);
    if (o.echo_broadcast) echoes.push_back(*o.echo_broadcast);
  }
  std::optional<ConfirmWire> confirm;
  for (const auto& echo : echoes) {
    auto o = member.on_echo(echo);
    if (o.confirm_to_leader) confirm = o.confirm_to_leader;
  }
  ASSERT_TRUE(confirm.has_value());
  EXPECT_FALSE(leader.on_confirm(*confirm).has_value());
  EXPECT_FALSE(leader.on_confirm(*confirm).has_value());  // replay
  EXPECT_FALSE(leader.on_confirm(*confirm).has_value());
}

TEST(Alg3, ForgedConfirmRejected) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  Confirm body;
  body.id = c.id;
  body.digest = crypto::sha256(bytes_of("different"));
  body.member = 1;
  ConfirmWire wire;
  wire.body = body;
  wire.sig = crypto::make_signed(c.keys[1], body.signed_part());
  EXPECT_FALSE(leader.on_confirm(wire).has_value());
}

TEST(Alg3, EquivocationDetectedViaSecondPropose) {
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  member.on_propose(leader.make_propose());
  auto out = member.on_propose(
      leader.make_equivocating_propose(bytes_of("conflicting")));
  ASSERT_TRUE(out.witness.has_value());
  EXPECT_TRUE(out.witness->valid(c.leader_keys().pk));
}

TEST(Alg3, EquivocationDetectedViaRelayedEcho) {
  // Leader sends M to member 1 and M' to member 2; member 1 catches the
  // contradiction from member 2's relayed PROPOSE.
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.pks);

  m1.on_propose(leader.make_propose());
  auto out2 =
      m2.on_propose(leader.make_equivocating_propose(bytes_of("other")));
  ASSERT_TRUE(out2.echo_broadcast.has_value());

  auto out1 = m1.on_echo(*out2.echo_broadcast);
  ASSERT_TRUE(out1.witness.has_value());
  EXPECT_TRUE(out1.witness->valid(c.leader_keys().pk));
}

TEST(Alg3, EquivocatingLeaderCannotReachQuorumOnBothValues) {
  // With the committee split between two proposals, neither digest can
  // gather > C/2 echoes, so nobody confirms either value.
  Committee c(6);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  const ProposeWire honest = leader.make_propose();
  const ProposeWire evil = leader.make_equivocating_propose(bytes_of("evil"));

  std::vector<MemberInstance> members;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
  }
  std::vector<EchoWire> echoes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    auto out = members[i].on_propose(i % 2 == 0 ? honest : evil);
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
  }
  std::size_t confirms = 0;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) ++confirms;
    }
  }
  EXPECT_EQ(confirms, 0u);
}

TEST(Alg3, MemberLearnsFromRelayWithoutDirectPropose) {
  // A member that never received the leader's PROPOSE directly can still
  // echo/confirm from relayed echoes (digest-only path).
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.pks);

  auto out1 = m1.on_propose(leader.make_propose());
  ASSERT_TRUE(out1.echo_broadcast.has_value());
  auto out2 = m2.on_echo(*out1.echo_broadcast);
  // m2 learned the proposal via the relay and echoes it.
  ASSERT_TRUE(out2.echo_broadcast.has_value());
}

TEST(Alg3, HeldRelayIsNotReverified) {
  // Once a member holds the PROPOSE, an ECHO relaying the same payload
  // needs no signature check beyond its own; one relaying a different
  // leader-signed payload still convicts the leader.
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  const ProposeWire honest = leader.make_propose();
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  ASSERT_TRUE(m1.on_propose(honest).echo_broadcast.has_value());

  std::vector<ReceivedEcho> relays;
  for (std::size_t i = 2; i < 4; ++i) {
    MemberInstance peer(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
    auto out = peer.on_propose(honest);
    ASSERT_TRUE(out.echo_broadcast.has_value());
    relays.emplace_back(std::move(*out.echo_broadcast));
    ASSERT_TRUE(relays.back().signature_valid());  // the echo's own check
  }
  crypto::verify_cache::clear();
  for (const ReceivedEcho& relay : relays) {
    EXPECT_FALSE(m1.on_echo(relay).witness.has_value());
  }
  EXPECT_EQ(crypto::verify_cache::hits() + crypto::verify_cache::misses(),
            0u);
  // Own echo plus two relays: 3 of 5 is a quorum.
  EXPECT_TRUE(m1.has_confirmed());

  MemberInstance m4(c.keys[4], 4, c.id, c.leader_keys().pk, c.pks);
  auto evil =
      m4.on_propose(leader.make_equivocating_propose(bytes_of("other")));
  ASSERT_TRUE(evil.echo_broadcast.has_value());
  const auto out = m1.on_echo(std::move(*evil.echo_broadcast));
  ASSERT_TRUE(out.witness.has_value());
  EXPECT_TRUE(out.witness->valid(c.leader_keys().pk));
}

TEST(Alg3, EchoFromNonMemberDoesNotCount) {
  // Committee of 5: member 1's own echo plus two validly signed ECHOs
  // from keys outside the roster are one member echo, not > C/2.
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  const ProposeWire propose = leader.make_propose();
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  ASSERT_TRUE(m1.on_propose(propose).echo_broadcast.has_value());
  auto echo_of = [&](const KeyPair& keys, std::uint64_t index) {
    MemberInstance peer(keys, index, c.id, c.leader_keys().pk, c.pks);
    auto out = peer.on_propose(propose);
    EXPECT_TRUE(out.echo_broadcast.has_value());
    return *out.echo_broadcast;
  };
  for (std::uint64_t i = 0; i < 2; ++i) {
    m1.on_echo(echo_of(KeyPair::from_seed(5000 + i), 10 + i));
  }
  EXPECT_FALSE(m1.has_confirmed());
  // Two member echoes complete the quorum.
  m1.on_echo(echo_of(c.keys[2], 2));
  EXPECT_FALSE(m1.has_confirmed());
  EXPECT_TRUE(m1.on_echo(echo_of(c.keys[3], 3)).confirm_to_leader.has_value());
}

TEST(Alg3, ConfirmFromNonMemberDoesNotCount) {
  // A certificate needs > C/2 roster members' CONFIRMs: a non-member's
  // neither completes the quorum nor lands in the certificate, so every
  // certificate the leader forms verifies against the roster.
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  const ProposeWire propose = leader.make_propose();
  std::vector<EchoWire> echoes;
  for (std::size_t i = 0; i < c.size(); ++i) {
    MemberInstance member(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
    echoes.push_back(*member.on_propose(propose).echo_broadcast);
  }
  // A CONFIRM from `keys` after every member's echo.
  auto confirm_of = [&](const KeyPair& keys, std::uint64_t index) {
    MemberInstance member(keys, index, c.id, c.leader_keys().pk, c.pks);
    member.on_propose(propose);
    std::optional<ConfirmWire> confirm;
    for (const auto& echo : echoes) {
      auto out = member.on_echo(echo);
      if (out.confirm_to_leader) confirm = out.confirm_to_leader;
    }
    EXPECT_TRUE(confirm.has_value());
    return *confirm;
  };
  EXPECT_FALSE(
      leader.on_confirm(confirm_of(KeyPair::from_seed(5000), 10)).has_value());
  EXPECT_FALSE(leader.on_confirm(confirm_of(c.keys[1], 1)).has_value());
  EXPECT_FALSE(leader.on_confirm(confirm_of(c.keys[2], 2)).has_value());
  const auto cert = leader.on_confirm(confirm_of(c.keys[3], 3));
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->confirms.size(), 3u);
  EXPECT_TRUE(cert->verify(c.pks, c.size()));
}

TEST(Alg3, TamperedEchoIgnored) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.pks);
  auto out1 = m1.on_propose(leader.make_propose());
  ASSERT_TRUE(out1.echo_broadcast.has_value());
  EchoWire tampered = *out1.echo_broadcast;
  tampered.body.member = 99;  // body no longer matches signature
  auto out2 = m2.on_echo(tampered);
  EXPECT_FALSE(out2.echo_broadcast.has_value());
  EXPECT_FALSE(out2.confirm_to_leader.has_value());
}

TEST(Alg3, WireSerializationRoundTrips) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  const ProposeWire propose = leader.make_propose();
  const ProposeWire propose2 = ProposeWire::deserialize(propose.serialize());
  EXPECT_EQ(propose2.message, propose.message);
  EXPECT_EQ(propose2.sig, propose.sig);

  MemberInstance m(c.keys[1], 1, c.id, c.leader_keys().pk, c.pks);
  auto out = m.on_propose(propose);
  ASSERT_TRUE(out.echo_broadcast.has_value());
  const EchoWire echo2 =
      EchoWire::deserialize(out.echo_broadcast->serialize());
  EXPECT_EQ(echo2.sig, out.echo_broadcast->sig);
  EXPECT_EQ(echo2.body.member, 1u);
}

// Quorum property sweep: cert emerges exactly when confirms > C/2.
class QuorumSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuorumSweep, ThresholdExact) {
  const std::size_t size = GetParam();
  Committee c(size);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.pks);
  const ProposeWire propose = leader.make_propose();

  std::vector<MemberInstance> members;
  std::vector<EchoWire> echoes;
  for (std::size_t i = 0; i < size; ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.pks);
    auto out = members.back().on_propose(propose);
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
  }
  std::vector<ConfirmWire> confirms;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
    }
  }
  ASSERT_EQ(confirms.size(), size);
  std::optional<QuorumCert> cert;
  std::size_t fed = 0;
  for (const auto& confirm : confirms) {
    cert = leader.on_confirm(confirm);
    ++fed;
    if (cert) break;
  }
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(fed, size / 2 + 1);  // strictly more than half
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 9, 12, 21));

}  // namespace
}  // namespace cyc::consensus
