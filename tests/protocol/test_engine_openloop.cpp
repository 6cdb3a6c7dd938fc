// Open-loop sustained-traffic mode at the engine level: inertness at
// rate 0 (closed-loop byte-identity), per-round flow conservation
// through the mempools, arrival -> commit latency stamps, backpressure
// under a tiny admission bound, and determinism.
#include <gtest/gtest.h>

#include "protocol/engine.hpp"

namespace cyc::protocol {
namespace {

Params small_params(std::uint64_t seed) {
  Params p;
  p.m = 2;
  p.c = 9;
  p.lambda = 3;
  p.referee_size = 5;
  p.txs_per_committee = 8;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  p.users = 40;
  p.seed = seed;
  return p;
}

Params openloop_params(std::uint64_t seed, double load_factor) {
  Params p = small_params(seed);
  // arrival_rate as a fraction of nominal capacity (m * txs_per_committee
  // transactions per round).
  p.arrival_rate = load_factor *
                   static_cast<double>(p.m * p.txs_per_committee) /
                   p.round_duration();
  p.zipf_s = 1.1;
  p.mempool_cap = 32;
  p.users = 80;
  return p;
}

TEST(OpenLoopEngine, InertAtRateZero) {
  Engine engine(small_params(3), {});
  EXPECT_FALSE(engine.open_loop());
  EXPECT_TRUE(engine.mempools().empty());
  const auto report = engine.run(2);
  for (const auto& r : report.rounds) {
    const auto& ol = r.open_loop;
    EXPECT_EQ(ol.arrived, 0u);
    EXPECT_EQ(ol.admitted, 0u);
    EXPECT_EQ(ol.mempool_dropped, 0u);
    EXPECT_EQ(ol.drained, 0u);
    EXPECT_EQ(ol.backlog, 0u);
    EXPECT_TRUE(ol.occupancy.empty());
    EXPECT_TRUE(ol.latencies.empty());
    // Closed-loop still commits: the open-loop machinery is what's off.
    EXPECT_GT(r.txs_committed, 0u);
  }
}

TEST(OpenLoopEngine, ClosedLoopByteIdenticalWithNewFieldsAtDefaults) {
  // Two engines with identical closed-loop params — one built before the
  // open-loop fields existed would behave exactly like one built with
  // them at defaults. Chain tips are full-state digests, so equality
  // here is byte-level identity of every block.
  Params a = small_params(4);
  Params b = small_params(4);
  b.zipf_s = 1.4;       // meaningless without arrival_rate > 0
  b.mempool_cap = 2;    // likewise
  Engine ea(a, {}), eb(b, {});
  ea.run(2);
  eb.run(2);
  EXPECT_TRUE(ea.chain().tip().hash() == eb.chain().tip().hash());
}

TEST(OpenLoopEngine, FlowConservationThroughMempools) {
  Engine engine(openloop_params(5, 0.8), {});
  ASSERT_TRUE(engine.open_loop());
  ASSERT_EQ(engine.mempools().size(), 2u);
  const auto report = engine.run(4);

  std::uint64_t admitted = 0, drained = 0;
  for (const auto& r : report.rounds) {
    const auto& ol = r.open_loop;
    // Per round: every arrival is admitted, dropped at admission, or
    // unrepresentable (spendable pool dry).
    EXPECT_EQ(ol.arrived, ol.admitted + ol.mempool_dropped + ol.exhausted);
    // Occupancy decomposes the backlog per shard.
    ASSERT_EQ(ol.occupancy.size(), 2u);
    EXPECT_EQ(ol.backlog, ol.occupancy[0] + ol.occupancy[1]);
    admitted += ol.admitted;
    drained += ol.drained;
  }
  // Cumulatively: admitted transactions are either drained into lists or
  // still queued at the end.
  EXPECT_EQ(admitted, drained + report.rounds.back().open_loop.backlog);
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(report.total_committed(), 0u);
}

TEST(OpenLoopEngine, LatencyStampsArePositiveAndBounded) {
  const Params p = openloop_params(6, 0.7);
  Engine engine(p, {});
  const std::size_t rounds = 4;
  const auto report = engine.run(rounds);
  std::size_t samples = 0;
  for (const auto& r : report.rounds) {
    for (const double latency : r.open_loop.latencies) {
      samples += 1;
      EXPECT_GT(latency, 0.0);
      // Nothing can wait longer than the whole run's simulated span.
      EXPECT_LE(latency, p.round_duration() * static_cast<double>(rounds));
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(engine.open_loop_clock(),
            p.round_duration() * static_cast<double>(rounds));
}

TEST(OpenLoopEngine, TinyMempoolForcesDrops) {
  Params p = openloop_params(7, 1.6);  // well past capacity
  p.mempool_cap = 4;
  Engine engine(p, {});
  const auto report = engine.run(3);
  std::uint64_t dropped = 0;
  for (const auto& r : report.rounds) {
    dropped += r.open_loop.mempool_dropped;
    // Occupancy can never exceed the admission bound.
    for (const auto occ : r.open_loop.occupancy) EXPECT_LE(occ, 4u);
  }
  EXPECT_GT(dropped, 0u);
}

TEST(OpenLoopEngine, Deterministic) {
  const Params p = openloop_params(8, 0.9);
  Engine a(p, {}), b(p, {});
  const auto ra = a.run(3);
  const auto rb = b.run(3);
  EXPECT_TRUE(a.chain().tip().hash() == b.chain().tip().hash());
  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (std::size_t i = 0; i < ra.rounds.size(); ++i) {
    const auto& oa = ra.rounds[i].open_loop;
    const auto& ob = rb.rounds[i].open_loop;
    EXPECT_EQ(oa.arrived, ob.arrived);
    EXPECT_EQ(oa.admitted, ob.admitted);
    EXPECT_EQ(oa.mempool_dropped, ob.mempool_dropped);
    EXPECT_EQ(oa.drained, ob.drained);
    EXPECT_EQ(oa.backlog, ob.backlog);
    EXPECT_EQ(oa.latencies, ob.latencies);
  }
}

TEST(OpenLoopEngine, RejectsZeroCapacityMempoolWithArrivals) {
  // mempool_cap = 0 with an open-loop source would silently drop every
  // arrival — the engine must refuse to construct instead of running a
  // vacuous experiment.
  Params p = openloop_params(9, 0.5);
  p.mempool_cap = 0;
  EXPECT_THROW(Engine(p, {}), std::invalid_argument);
}

TEST(OpenLoopEngine, ZeroCapacityMempoolFineWithoutArrivals) {
  // Closed-loop runs never consult the mempools, so cap 0 stays legal
  // there.
  Params p = small_params(9);
  p.mempool_cap = 0;
  Engine engine(p, {});
  const auto report = engine.run(1);
  EXPECT_GT(report.total_committed(), 0u);
}

TEST(OpenLoopEngine, OccupancySampledAfterTheDrain) {
  // OpenLoopRoundStats.occupancy is pinned to the POST-drain queue
  // depths: after any round, occupancy[k] must equal the mempool's live
  // size and their sum must equal the reported backlog. A pre-drain
  // sample would double-count the transactions the round just serviced
  // (see src/ledger/README.md).
  const Params p = openloop_params(10, 1.3);
  Engine engine(p, {});
  for (std::uint64_t r = 0; r < 3; ++r) {
    const auto report = engine.run_round();
    const auto& ol = report.open_loop;
    ASSERT_EQ(ol.occupancy.size(), engine.mempools().size());
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < ol.occupancy.size(); ++k) {
      EXPECT_EQ(ol.occupancy[k], engine.mempools()[k].size());
      total += ol.occupancy[k];
    }
    EXPECT_EQ(total, ol.backlog);
  }
}

TEST(OpenLoopEngine, LatencyShardsParallelTheLatencySamples) {
  const Params p = openloop_params(11, 0.8);
  Engine engine(p, {});
  const auto report = engine.run(3);
  std::size_t samples = 0;
  for (const auto& r : report.rounds) {
    const auto& ol = r.open_loop;
    ASSERT_EQ(ol.latency_shards.size(), ol.latencies.size());
    for (const auto shard : ol.latency_shards) EXPECT_LT(shard, p.m);
    samples += ol.latencies.size();
  }
  EXPECT_GT(samples, 0u);
}

}  // namespace
}  // namespace cyc::protocol
