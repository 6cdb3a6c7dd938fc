#include "net/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/simnet.hpp"

namespace cyc::net {
namespace {

using DeliveryLog = std::vector<std::pair<NodeId, Time>>;

SimNet make_net(std::size_t nodes, DelayModel delays = {},
                std::uint64_t seed = 7) {
  return SimNet(nodes, delays, rng::Stream(seed));
}

void log_deliveries(SimNet& net, std::size_t nodes, DeliveryLog& log) {
  for (NodeId i = 0; i < nodes; ++i) {
    net.set_handler(i, [&log, i](const Message&, Time t) {
      log.emplace_back(i, t);
    });
  }
}

TEST(Faults, PartitionCutsIslandFromMainland) {
  SimNet net = make_net(4);
  FaultPlan plan;
  plan.partitions.push_back({0, 10, {2, 3}});
  net.install_faults(std::move(plan), rng::Stream(1));
  net.begin_round(0);
  DeliveryLog log;
  log_deliveries(net, 4, log);
  net.send(0, 2, Tag::kConfig, {});  // mainland -> island: cut
  net.send(2, 0, Tag::kConfig, {});  // island -> mainland: cut
  net.send(0, 1, Tag::kConfig, {});  // mainland internal: delivered
  net.send(2, 3, Tag::kConfig, {});  // island internal: delivered
  net.run();
  ASSERT_EQ(log.size(), 2u);
  std::vector<NodeId> receivers = {log[0].first, log[1].first};
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(net.stats().faults().partition_dropped, 2u);
  EXPECT_EQ(net.dropped_sends(), 2u);
}

TEST(Faults, PartitionHealsAtHealRound) {
  SimNet net = make_net(2);
  FaultPlan plan;
  plan.partitions.push_back({1, 3, {1}});
  net.install_faults(std::move(plan), rng::Stream(1));
  int delivered = 0;
  net.set_handler(1, [&](const Message&, Time) { ++delivered; });
  for (std::uint64_t round : {0, 1, 2, 3, 4}) {
    net.begin_round(round);
    net.send(0, 1, Tag::kConfig, {});
    net.run();
  }
  // Cut during rounds 1 and 2 only.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(net.stats().faults().partition_dropped, 2u);
}

TEST(Faults, HealAllClampsActivePartitions) {
  FaultInjector injector(FaultPlan{{{0, 100, {1}}}, {}, {}}, rng::Stream(1));
  injector.begin_round(5);
  EXPECT_TRUE(injector.partition_active());
  EXPECT_EQ(injector.heal_all(5), 1u);
  EXPECT_FALSE(injector.partition_active());
  EXPECT_TRUE(injector.reachable(0, 1));
}

TEST(Faults, BlackoutSilencesNodeBothWays) {
  SimNet net = make_net(3);
  FaultPlan plan;
  plan.blackouts.push_back({1, 0, 2});
  net.install_faults(std::move(plan), rng::Stream(1));
  net.begin_round(0);
  DeliveryLog log;
  log_deliveries(net, 3, log);
  net.send(0, 1, Tag::kConfig, {});  // to blacked-out node: cut
  net.send(1, 2, Tag::kConfig, {});  // from blacked-out node: cut
  net.send(0, 2, Tag::kConfig, {});  // bystanders unaffected
  net.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 2u);
  EXPECT_EQ(net.stats().faults().blackout_dropped, 2u);
  // Window is exclusive at until_round.
  net.begin_round(2);
  net.send(0, 1, Tag::kConfig, {});
  net.run();
  EXPECT_EQ(log.size(), 2u);
}

TEST(Faults, ReachabilityQueries) {
  FaultPlan plan;
  plan.partitions.push_back({0, 10, {2, 3}});
  plan.blackouts.push_back({4, 0, 10});
  FaultInjector injector(std::move(plan), rng::Stream(1));
  injector.begin_round(0);
  EXPECT_TRUE(injector.reachable(0, 1));
  EXPECT_TRUE(injector.reachable(2, 3));
  EXPECT_FALSE(injector.reachable(0, 2));
  EXPECT_FALSE(injector.reachable(0, 4));  // blackout beats mainland
  EXPECT_TRUE(injector.blacked_out(4));
  EXPECT_EQ(injector.island_mask(2), 1u);
  EXPECT_EQ(injector.island_mask(0), 0u);
  injector.begin_round(10);  // expired
  EXPECT_TRUE(injector.reachable(0, 2));
  EXPECT_FALSE(injector.blacked_out(4));
}

TEST(Faults, SeededDropIsDeterministic) {
  auto run_once = [](std::uint64_t fault_seed) {
    SimNet net = make_net(2);
    FaultPlan plan;
    plan.wide_area.drop = 0.5;
    net.install_faults(std::move(plan), rng::Stream(fault_seed));
    net.begin_round(0);
    DeliveryLog log;
    log_deliveries(net, 2, log);
    for (int i = 0; i < 64; ++i) net.send(0, 1, Tag::kConfig, {});
    net.run();
    return std::make_pair(log, net.stats().faults().lost);
  };
  const auto [log_a, lost_a] = run_once(3);
  const auto [log_b, lost_b] = run_once(3);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(lost_a, lost_b);
  EXPECT_GT(lost_a, 0u);
  EXPECT_LT(lost_a, 64u);
  EXPECT_NE(run_once(4).second, 0u);
}

TEST(Faults, DuplicateDeliversTwice) {
  SimNet net = make_net(2);
  FaultPlan plan;
  plan.wide_area.duplicate = 1.0;
  net.install_faults(std::move(plan), rng::Stream(1));
  net.begin_round(0);
  int delivered = 0;
  net.set_handler(1, [&](const Message&, Time) { ++delivered; });
  net.send(0, 1, Tag::kConfig, {1, 2, 3});
  net.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().faults().duplicated, 1u);
  // One send, two receives: the counter asymmetry is the observable.
  EXPECT_EQ(net.stats().node_total(0).msgs_sent, 1u);
  EXPECT_EQ(net.stats().node_total(1).msgs_recv, 2u);
}

TEST(Faults, ReorderInjectsExtraDelay) {
  DelayModel delays;
  delays.gamma = 5.0;
  delays.jitter = 0.0;
  SimNet net(2, delays, rng::Stream(3));
  net.set_link_classifier(
      [](NodeId, NodeId) { return LinkClass::kPartialSync; });
  FaultPlan plan;
  plan.wide_area.reorder = 1.0;
  net.install_faults(std::move(plan), rng::Stream(9));
  net.begin_round(0);
  Time arrival = -1.0;
  net.set_handler(1, [&](const Message&, Time t) { arrival = t; });
  net.send(0, 1, Tag::kConfig, {});
  net.run();
  // Base partial-sync delay with zero jitter is exactly gamma; the
  // injected factor (1 + kReorderScale * u) stretches it beyond the
  // nominal bound.
  EXPECT_GT(arrival, 5.0);
  EXPECT_LE(arrival, 5.0 * (1.0 + kReorderScale));
  EXPECT_EQ(net.stats().faults().reordered, 1u);
}

TEST(Faults, WideAreaProfileSparesIntraCommitteeLinks) {
  // §III-B: intra-committee channels stay synchronous and reliable, so a
  // profile that loses, duplicates and delays every wide-area message
  // leaves them untouched.
  SimNet net = make_net(2);
  net.set_link_classifier(
      [](NodeId, NodeId) { return LinkClass::kIntraCommittee; });
  FaultPlan plan;
  plan.wide_area = {1.0, 1.0, 1.0};
  net.install_faults(std::move(plan), rng::Stream(1));
  net.begin_round(0);
  int delivered = 0;
  net.set_handler(1, [&](const Message&, Time) { ++delivered; });
  for (int i = 0; i < 8; ++i) net.send(0, 1, Tag::kConfig, {});
  net.run();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(net.stats().faults().injected(), 0u);
}

TEST(Faults, StructuralPlanLeavesDeliveryByteIdentical) {
  // A plan with no probabilistic axes must not perturb delay draws: the
  // delivery log with an installed (but structurally inert) injector is
  // identical to an uninstrumented run.
  auto run_once = [](bool install) {
    SimNet net = make_net(4);
    if (install) {
      FaultPlan plan;
      plan.partitions.push_back({100, 200, {3}});  // never active
      net.install_faults(std::move(plan), rng::Stream(42));
    }
    net.begin_round(0);
    DeliveryLog log;
    log_deliveries(net, 4, log);
    for (NodeId i = 0; i < 4; ++i) {
      for (NodeId j = 0; j < 4; ++j) {
        if (i != j) net.send(i, j, Tag::kConfig, {});
      }
    }
    net.run();
    return log;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(Faults, FaultStatsResetWithTraffic) {
  SimNet net = make_net(2);
  FaultPlan plan;
  plan.blackouts.push_back({1, 0, 5});
  net.install_faults(std::move(plan), rng::Stream(1));
  net.begin_round(0);
  net.set_handler(1, [](const Message&, Time) {});
  net.send(0, 1, Tag::kConfig, {});
  net.run();
  EXPECT_EQ(net.stats().faults().injected(), 1u);
  net.stats().reset();
  EXPECT_EQ(net.stats().faults(), FaultStats{});
}

}  // namespace
}  // namespace cyc::net
