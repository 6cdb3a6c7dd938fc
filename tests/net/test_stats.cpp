#include "net/stats.hpp"

#include <gtest/gtest.h>

#include "net/simnet.hpp"

namespace cyc::net {
namespace {

TEST(Stats, NoteAndQuery) {
  TrafficStats stats;
  stats.resize(3);
  stats.note_send(0, Phase::kIntraConsensus, Tag::kConfig, 100);
  stats.note_send(0, Phase::kIntraConsensus, Tag::kConfig, 50);
  stats.note_recv(1, Phase::kIntraConsensus, Tag::kConfig, 100);

  const auto& c0 = stats.at(0, Phase::kIntraConsensus);
  EXPECT_EQ(c0.msgs_sent, 2u);
  EXPECT_EQ(c0.bytes_sent, 150u);
  EXPECT_EQ(c0.msgs_recv, 0u);

  const auto& c1 = stats.at(1, Phase::kIntraConsensus);
  EXPECT_EQ(c1.msgs_recv, 1u);
  EXPECT_EQ(c1.bytes_recv, 100u);
}

TEST(Stats, PhasesAreSeparate) {
  TrafficStats stats;
  stats.resize(1);
  stats.note_send(0, Phase::kSemiCommit, Tag::kConfig, 10);
  stats.note_send(0, Phase::kBlock, Tag::kConfig, 20);
  EXPECT_EQ(stats.at(0, Phase::kSemiCommit).bytes_sent, 10u);
  EXPECT_EQ(stats.at(0, Phase::kBlock).bytes_sent, 20u);
  EXPECT_EQ(stats.at(0, Phase::kIdle).bytes_sent, 0u);
}

TEST(Stats, NodeTotalAggregatesPhases) {
  TrafficStats stats;
  stats.resize(1);
  stats.note_send(0, Phase::kSemiCommit, Tag::kConfig, 10);
  stats.note_send(0, Phase::kBlock, Tag::kConfig, 20);
  const auto total = stats.node_total(0);
  EXPECT_EQ(total.msgs_sent, 2u);
  EXPECT_EQ(total.bytes_sent, 30u);
}

TEST(Stats, PhaseTotalAggregatesNodes) {
  TrafficStats stats;
  stats.resize(3);
  stats.note_send(0, Phase::kBlock, Tag::kConfig, 5);
  stats.note_send(1, Phase::kBlock, Tag::kConfig, 7);
  stats.note_send(2, Phase::kSelection, Tag::kConfig, 100);
  const auto total = stats.phase_total(Phase::kBlock);
  EXPECT_EQ(total.msgs_sent, 2u);
  EXPECT_EQ(total.bytes_sent, 12u);
}

TEST(Stats, GrandTotal) {
  TrafficStats stats;
  stats.resize(2);
  stats.note_send(0, Phase::kBlock, Tag::kConfig, 5);
  stats.note_recv(1, Phase::kBlock, Tag::kConfig, 5);
  const auto total = stats.grand_total();
  EXPECT_EQ(total.msgs_sent, 1u);
  EXPECT_EQ(total.msgs_recv, 1u);
}

TEST(Stats, Reset) {
  TrafficStats stats;
  stats.resize(2);
  stats.note_send(0, Phase::kBlock, Tag::kConfig, 5);
  stats.reset();
  EXPECT_EQ(stats.grand_total().msgs_sent, 0u);
  EXPECT_EQ(stats.node_count(), 2u);
}

TEST(Stats, CounterAddition) {
  Counter a{1, 10, 2, 20};
  Counter b{3, 30, 4, 40};
  a += b;
  EXPECT_EQ(a.msgs_sent, 4u);
  EXPECT_EQ(a.bytes_sent, 40u);
  EXPECT_EQ(a.msgs_recv, 6u);
  EXPECT_EQ(a.bytes_recv, 60u);
}

TEST(Stats, OutOfRangeThrows) {
  TrafficStats stats;
  stats.resize(1);
  EXPECT_THROW(stats.note_send(5, Phase::kBlock, Tag::kConfig, 1),
               std::out_of_range);
  EXPECT_EQ(stats.at(Phase::kBlock, Tag::kConfig).msgs_sent, 0u);
}

TEST(Stats, PhaseNames) {
  EXPECT_EQ(phase_name(Phase::kSemiCommit), "semi-commitment");
}

TEST(Stats, TagTableCountsEachMessageOnce) {
  TrafficStats stats;
  stats.resize(3);
  stats.note_send(0, Phase::kIntraConsensus, Tag::kVote, 40);
  stats.note_send(1, Phase::kIntraConsensus, Tag::kVote, 60);
  stats.note_send(2, Phase::kIntraConsensus, Tag::kTxList, 7);
  stats.note_recv(2, Phase::kIntraConsensus, Tag::kVote, 40);

  const Counter& votes = stats.at(Phase::kIntraConsensus, Tag::kVote);
  EXPECT_EQ(votes.msgs_sent, 2u);
  EXPECT_EQ(votes.bytes_sent, 100u);
  EXPECT_EQ(votes.msgs_recv, 1u);
  EXPECT_EQ(votes.bytes_recv, 40u);
  EXPECT_EQ(stats.at(Phase::kIntraConsensus, Tag::kTxList).bytes_sent, 7u);
  EXPECT_EQ(stats.at(Phase::kBlock, Tag::kVote).msgs_sent, 0u);

  stats.reset();
  EXPECT_EQ(stats.at(Phase::kIntraConsensus, Tag::kVote).msgs_sent, 0u);
  EXPECT_EQ(stats.at(0, Phase::kIntraConsensus).msgs_sent, 0u);
}

// The two tables count the same messages: summed over tags, the (phase,
// tag) table equals the (node, phase) table summed over nodes, for every
// phase and on both sides, including a run whose injector drops,
// duplicates and delays messages.
TEST(Stats, TagAndNodeTablesAgreeUnderFaults) {
  constexpr std::size_t kNodes = 6;
  SimNet net(kNodes, DelayModel{}, rng::Stream(3));
  FaultPlan plan;
  plan.link[static_cast<std::size_t>(LinkClass::kKeyMesh)] = {
      0.2, 0.2, 0.3, 2.0};
  plan.blackouts.push_back({5, 0, 1});
  net.install_faults(plan, rng::Stream(4));
  for (NodeId i = 0; i < kNodes; ++i) {
    net.set_handler(i, [](const Message&, Time) {});
  }
  const Tag tags[] = {Tag::kConfig, Tag::kVote, Tag::kBlock};
  for (Phase phase : {Phase::kCommitteeConfig, Phase::kIntraConsensus,
                      Phase::kBlock}) {
    net.set_phase(phase);
    for (NodeId from = 0; from < kNodes; ++from) {
      for (NodeId to = 0; to < kNodes; ++to) {
        if (from != to) net.send(from, to, tags[(from + to) % 3], Bytes(to));
      }
    }
  }
  net.run();

  const TrafficStats& stats = net.stats();
  const FaultStats& faults = stats.faults();
  ASSERT_GT(faults.lost, 0u);
  ASSERT_GT(faults.duplicated, 0u);
  ASSERT_GT(faults.reordered, 0u);
  ASSERT_GT(faults.blackout_dropped, 0u);
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p) {
    const auto phase = static_cast<Phase>(p);
    Counter by_node, by_tag;
    for (NodeId n = 0; n < kNodes; ++n) by_node += stats.at(n, phase);
    for (std::size_t t = 0; t < kTagCount; ++t) {
      by_tag += stats.at(phase, static_cast<Tag>(t));
    }
    EXPECT_EQ(by_node.msgs_sent, by_tag.msgs_sent) << phase_name(phase);
    EXPECT_EQ(by_node.bytes_sent, by_tag.bytes_sent) << phase_name(phase);
    EXPECT_EQ(by_node.msgs_recv, by_tag.msgs_recv) << phase_name(phase);
    EXPECT_EQ(by_node.bytes_recv, by_tag.bytes_recv) << phase_name(phase);
  }
  // Sends are counted before the drop decision, deliveries once per copy.
  const Counter total = stats.grand_total();
  EXPECT_EQ(total.msgs_sent, 3u * kNodes * (kNodes - 1));
  EXPECT_EQ(total.msgs_recv,
            total.msgs_sent - faults.dropped() + faults.duplicated);
}

}  // namespace
}  // namespace cyc::net
