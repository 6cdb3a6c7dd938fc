#include "net/simnet.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cyc::net {
namespace {

SimNet make_net(std::size_t nodes, DelayModel delays = {}) {
  return SimNet(nodes, delays, rng::Stream(7));
}

TEST(SimNet, DeliversMessage) {
  SimNet net = make_net(2);
  bool delivered = false;
  net.set_handler(1, [&](const Message& msg, Time) {
    delivered = true;
    EXPECT_EQ(msg.from, 0u);
    EXPECT_EQ(msg.to, 1u);
    EXPECT_EQ(msg.tag, Tag::kConfig);
    EXPECT_EQ(msg.payload(), Bytes({1, 2, 3}));
  });
  net.send(0, 1, Tag::kConfig, {1, 2, 3});
  net.run();
  EXPECT_TRUE(delivered);
}

TEST(SimNet, DelayRespectsLinkClass) {
  DelayModel delays;
  delays.delta = 1.0;
  delays.gamma = 10.0;
  SimNet net(3, delays, rng::Stream(1));
  net.set_link_classifier([](NodeId from, NodeId) {
    return from == 0 ? LinkClass::kIntraCommittee : LinkClass::kKeyMesh;
  });
  Time fast = -1, slow = -1;
  net.set_handler(2, [&](const Message& msg, Time now) {
    (msg.from == 0 ? fast : slow) = now;
  });
  net.send(0, 2, Tag::kConfig, {});
  net.send(1, 2, Tag::kConfig, {});
  net.run();
  EXPECT_GT(fast, 0.0);
  EXPECT_LE(fast, 1.0);    // within Delta
  EXPECT_GT(slow, 1.0);    // key-mesh delay
  EXPECT_LE(slow, 10.0);   // within Gamma
}

TEST(SimNet, DeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    SimNet net(4, DelayModel{}, rng::Stream(seed));
    std::vector<std::pair<NodeId, Time>> log;
    for (NodeId i = 0; i < 4; ++i) {
      net.set_handler(i, [&log, i](const Message&, Time t) {
        log.emplace_back(i, t);
      });
    }
    for (NodeId i = 0; i < 4; ++i) {
      for (NodeId j = 0; j < 4; ++j) {
        if (i != j) net.send(i, j, Tag::kConfig, {});
      }
    }
    net.run();
    return log;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(SimNet, MulticastSkipsSelf) {
  SimNet net = make_net(4);
  int count = 0;
  for (NodeId i = 0; i < 4; ++i) {
    net.set_handler(i, [&](const Message&, Time) { ++count; });
  }
  net.multicast(0, {0, 1, 2, 3}, Tag::kConfig, {});
  net.run();
  EXPECT_EQ(count, 3);
}

TEST(SimNet, TimersFireInOrder) {
  SimNet net = make_net(1);
  std::vector<int> order;
  net.schedule(5.0, [&](Time) { order.push_back(2); });
  net.schedule(1.0, [&](Time) { order.push_back(1); });
  net.schedule(9.0, [&](Time) { order.push_back(3); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimNet, TimerInPastFiresNow) {
  SimNet net = make_net(1);
  net.schedule(10.0, [&](Time) {});
  net.run();
  bool fired = false;
  net.schedule(1.0, [&](Time t) {
    fired = true;
    EXPECT_GE(t, 10.0);  // clamped to 'now'
  });
  net.run();
  EXPECT_TRUE(fired);
}

TEST(SimNet, RunDeadlineStopsEarly) {
  SimNet net = make_net(1);
  bool late_fired = false;
  net.schedule(100.0, [&](Time) { late_fired = true; });
  net.run(50.0);
  EXPECT_FALSE(late_fired);
  EXPECT_FALSE(net.idle());
  net.run();
  EXPECT_TRUE(late_fired);
}

TEST(SimNet, CascadedSendsFromHandler) {
  SimNet net = make_net(3);
  std::vector<NodeId> hops;
  net.set_handler(1, [&](const Message&, Time) {
    hops.push_back(1);
    net.send(1, 2, Tag::kConfig, {});
  });
  net.set_handler(2, [&](const Message&, Time) { hops.push_back(2); });
  net.send(0, 1, Tag::kConfig, {});
  net.run();
  EXPECT_EQ(hops, (std::vector<NodeId>{1, 2}));
}

TEST(SimNet, StatsCountTraffic) {
  SimNet net = make_net(2);
  net.set_phase(Phase::kIntraConsensus);
  net.set_handler(1, [](const Message&, Time) {});
  net.send(0, 1, Tag::kConfig, Bytes(100, 0));
  net.run();
  const auto& sent = net.stats().at(0, Phase::kIntraConsensus);
  const auto& recv = net.stats().at(1, Phase::kIntraConsensus);
  EXPECT_EQ(sent.msgs_sent, 1u);
  EXPECT_EQ(sent.bytes_sent, 116u);  // payload + 16-byte header
  EXPECT_EQ(recv.msgs_recv, 1u);
  EXPECT_EQ(recv.bytes_recv, 116u);
}

TEST(SimNet, PhaseAttributionIsSendTime) {
  SimNet net = make_net(2);
  net.set_handler(1, [](const Message&, Time) {});
  net.set_phase(Phase::kSemiCommit);
  net.send(0, 1, Tag::kConfig, {});
  net.set_phase(Phase::kBlock);  // phase changes before delivery
  net.run();
  EXPECT_EQ(net.stats().at(1, Phase::kSemiCommit).msgs_recv, 1u);
  EXPECT_EQ(net.stats().at(1, Phase::kBlock).msgs_recv, 0u);
}

TEST(SimNet, SendToUnknownNodeThrows) {
  SimNet net = make_net(2);
  // The classifier must never see an unknown endpoint.
  net.set_link_classifier([](NodeId from, NodeId to) {
    EXPECT_LT(from, 2u);
    EXPECT_LT(to, 2u);
    return LinkClass::kKeyMesh;
  });
  EXPECT_THROW(net.send(0, 5, Tag::kConfig, {}), std::out_of_range);
  EXPECT_THROW(net.send(5, 0, Tag::kConfig, {}), std::out_of_range);
  EXPECT_EQ(net.stats().grand_total().msgs_sent, 0u);
  EXPECT_TRUE(net.idle());
}

TEST(SimNet, DroppedSendsDeterministicAcrossRuns) {
  // Non-vacuity: sends the fault plan drops (a blackout plus random
  // wide-area loss) are counted, not silently lost, and the count is
  // identical across repeated runs of the same seeds.
  auto run_once = [] {
    SimNet net(4, DelayModel{}, rng::Stream(11));
    FaultPlan plan;
    plan.blackouts.push_back({1, 0, 10});
    plan.wide_area.drop = 0.3;
    net.install_faults(std::move(plan), rng::Stream(5));
    net.begin_round(0);
    std::uint64_t delivered = 0;
    for (NodeId i = 0; i < 4; ++i) {
      net.set_handler(i, [&](const Message&, Time) { ++delivered; });
    }
    for (NodeId i = 0; i < 4; ++i) {
      for (NodeId j = 0; j < 4; ++j) {
        if (i != j) net.send(i, j, Tag::kConfig, {});
      }
    }
    net.run();
    return std::make_pair(net.dropped_sends(), delivered);
  };
  const auto [dropped_a, delivered_a] = run_once();
  const auto [dropped_b, delivered_b] = run_once();
  EXPECT_EQ(dropped_a, dropped_b);
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_GT(dropped_a, 6u);                 // the blackout's 6, plus loss
  EXPECT_EQ(dropped_a + delivered_a, 12u);  // nothing silently lost
}

TEST(SimNet, EqualTimestampsDeliverInSeqOrder) {
  // With zero jitter every kPartialSync delay is exactly gamma, so all
  // messages sent at t=0 carry equal delivery timestamps and the queue
  // must fall back to the seq_ tie-break: delivery order == send order,
  // byte-identical on every run (sweeps run one single-threaded SimNet
  // per point, so per-instance determinism is what thread-count
  // invariance of the artifacts rests on).
  auto run_once = [] {
    DelayModel delays;
    delays.gamma = 5.0;
    delays.jitter = 0.0;
    SimNet net(8, delays, rng::Stream(2));
    net.set_link_classifier(
        [](NodeId, NodeId) { return LinkClass::kPartialSync; });
    std::vector<std::pair<NodeId, Time>> log;
    net.set_handler(7, [&](const Message& msg, Time t) {
      log.emplace_back(msg.from, t);
    });
    for (NodeId i = 0; i < 7; ++i) net.send(i, 7, Tag::kConfig, {});
    net.run();
    return log;
  };
  const auto log = run_once();
  ASSERT_EQ(log.size(), 7u);
  for (NodeId i = 0; i < 7; ++i) {
    EXPECT_EQ(log[i].first, i);        // seq order == send order
    EXPECT_EQ(log[i].second, 5.0);     // all timestamps equal
  }
  EXPECT_EQ(log, run_once());
}

TEST(SimNet, PartialSyncDelaysLargerThanGamma) {
  DelayModel delays;
  delays.gamma = 5.0;
  delays.jitter = 1.0;
  SimNet net(2, delays, rng::Stream(3));
  net.set_link_classifier(
      [](NodeId, NodeId) { return LinkClass::kPartialSync; });
  Time arrival = -1;
  net.set_handler(1, [&](const Message&, Time t) { arrival = t; });
  net.send(0, 1, Tag::kConfig, {});
  net.run();
  EXPECT_GE(arrival, 5.0);
  EXPECT_LE(arrival, 10.0);
}

}  // namespace
}  // namespace cyc::net
