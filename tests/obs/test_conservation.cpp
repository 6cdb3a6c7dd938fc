// Metrics conservation: the registry's net.* counters are derived at
// round end from the SimNet's TrafficStats, the store the RoundReport is
// built from. These tests pin that derivation: the per-(phase, tag)
// traffic counters sum to the report's traffic, the net.fault.* counters
// equal the report's FaultStats and exist only when non-zero, and the
// mempool counters match OpenLoopRoundStats.
#include <gtest/gtest.h>

#include <string>

#include "net/stats.hpp"
#include "obs/observer.hpp"
#include "protocol/engine.hpp"

namespace cyc::protocol {
namespace {

Params small_params() {
  Params params;
  params.m = 3;
  params.c = 9;
  params.lambda = 3;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.25;
  params.users = 60;
  params.seed = 7;
  return params;
}

std::uint64_t sum_prefixed(const obs::Registry& reg,
                           const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.rfind(prefix, 0) == 0) total += counter.value();
  }
  return total;
}

TEST(MetricsConservation, PerPhaseSendCountersSumToEngineTraffic) {
  protocol::Engine engine(small_params(), AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);

  net::Counter total;
  for (int r = 0; r < 3; ++r) {
    const RoundReport report = engine.run_round();
    total += report.traffic_total;
  }
  ASSERT_GT(total.msgs_sent, 0u);

  const obs::Registry& reg = observer.metrics;
  // Every send (delivered or dropped) lands in exactly one
  // net.sent.<phase>.<tag> cell; same for deliveries on the recv side.
  ASSERT_GT(sum_prefixed(reg, "net.sent."), 0u);
  std::uint64_t sent_msgs = 0, sent_bytes = 0, recv_msgs = 0, recv_bytes = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.rfind("net.sent.", 0) == 0) {
      if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".msgs") == 0) {
        sent_msgs += counter.value();
      } else {
        sent_bytes += counter.value();
      }
    } else if (name.rfind("net.recv.", 0) == 0) {
      if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".msgs") == 0) {
        recv_msgs += counter.value();
      } else {
        recv_bytes += counter.value();
      }
    }
  }
  EXPECT_EQ(sent_msgs, total.msgs_sent);
  EXPECT_EQ(sent_bytes, total.bytes_sent);
  EXPECT_EQ(recv_msgs, total.msgs_recv);
  EXPECT_EQ(recv_bytes, total.bytes_recv);

  EXPECT_EQ(reg.find_counter("engine.rounds")->value(), 3u);
  // Every round histogram saw exactly one sample.
  EXPECT_EQ(reg.find_histogram("round.sim_duration")->count(), 3u);
}

TEST(MetricsConservation, FaultCountersMatchFaultStats) {
  Params params = small_params();
  params.faults.drop = 0.1;
  params.faults.duplicate = 0.1;
  params.faults.reorder = 0.2;
  protocol::Engine engine(params, AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);
  engine.blackout(/*node=*/0, /*from_round=*/2, /*until_round=*/3);

  net::FaultStats sums;
  for (int r = 0; r < 3; ++r) sums += engine.run_round().faults;
  ASSERT_GT(sums.lost, 0u);
  ASSERT_GT(sums.duplicated, 0u);
  ASSERT_GT(sums.reordered, 0u);
  ASSERT_GT(sums.blackout_dropped, 0u);
  ASSERT_EQ(sums.partition_dropped, 0u);  // no partition in this run

  const obs::Registry& reg = observer.metrics;
  for (const auto& [field, sum] :
       {std::pair{"partition_dropped", sums.partition_dropped},
        std::pair{"blackout_dropped", sums.blackout_dropped},
        std::pair{"lost", sums.lost}, std::pair{"duplicated", sums.duplicated},
        std::pair{"reordered", sums.reordered}}) {
    const std::string name = std::string("net.fault.") + field;
    const obs::MetricCounter* counter = reg.find_counter(name);
    if (sum == 0) {
      EXPECT_EQ(counter, nullptr) << name;
    } else {
      ASSERT_NE(counter, nullptr) << name;
      EXPECT_EQ(counter->value(), sum) << name;
    }
  }
  EXPECT_EQ(sum_prefixed(reg, "net.fault."), sums.injected());
}

TEST(MetricsConservation, MempoolCountersMatchOpenLoopStats) {
  Params params = small_params();
  params.arrival_rate = 0.5;
  protocol::Engine engine(params, AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);

  OpenLoopRoundStats sums;
  std::uint64_t last_backlog = 0;
  for (int r = 0; r < 4; ++r) {
    const RoundReport report = engine.run_round();
    sums.arrived += report.open_loop.arrived;
    sums.admitted += report.open_loop.admitted;
    sums.mempool_dropped += report.open_loop.mempool_dropped;
    sums.drained += report.open_loop.drained;
    last_backlog = report.open_loop.backlog;
  }
  ASSERT_GT(sums.arrived, 0u);

  const obs::Registry& reg = observer.metrics;
  EXPECT_EQ(reg.find_counter("mempool.arrived")->value(), sums.arrived);
  EXPECT_EQ(reg.find_counter("mempool.admitted")->value(), sums.admitted);
  EXPECT_EQ(reg.find_counter("mempool.drained")->value(), sums.drained);
  if (sums.mempool_dropped > 0) {
    EXPECT_EQ(reg.find_counter("mempool.dropped")->value(),
              sums.mempool_dropped);
  }
  EXPECT_DOUBLE_EQ(reg.find_gauge("mempool.backlog")->value(),
                   static_cast<double>(last_backlog));
}

TEST(MetricsConservation, CertsRecorded) {
  protocol::Engine engine(small_params(), AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);
  (void)engine.run_round();
  const obs::Registry& reg = observer.metrics;
  ASSERT_NE(reg.find_counter("consensus.certs"), nullptr);
  EXPECT_GT(reg.find_counter("consensus.certs")->value(), 0u);
}

}  // namespace
}  // namespace cyc::protocol
