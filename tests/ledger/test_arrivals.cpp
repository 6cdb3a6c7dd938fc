#include "ledger/arrivals.hpp"

#include <gtest/gtest.h>

#include <map>

namespace cyc::ledger {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig cfg;
  cfg.shards = 4;
  cfg.users = 64;
  cfg.outputs_per_user = 4;
  cfg.initial_amount = 1000;
  cfg.cross_shard_fraction = 0.3;
  cfg.invalid_fraction = 0.0;
  return cfg;
}

/// The map a standalone generator routes by: the hash, no overrides.
std::shared_ptr<const ShardMap> map_for(const WorkloadConfig& cfg) {
  return std::make_shared<const ShardMap>(cfg.shards);
}

TEST(Zipf, RejectsDegenerateArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(8, -0.5), std::invalid_argument);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  const ZipfSampler zipf(50, 1.2);
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(zipf.probability(50), 0.0);
}

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.probability(k), 0.1, 1e-12);
  }
}

TEST(Zipf, EmpiricalFrequenciesMatchExponent) {
  // Frequency ranks follow the exponent at a fixed seed: rank k's
  // empirical share matches its exact mass within tolerance, and the
  // head dominates the tail the way 1/(k+1)^s says it should.
  const ZipfSampler zipf(32, 1.0);
  rng::Stream rng(42);
  constexpr int kDraws = 200000;
  std::map<std::size_t, int> counts;
  for (int i = 0; i < kDraws; ++i) counts[zipf.sample(rng)] += 1;
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    const double expected = zipf.probability(k);
    const double observed =
        static_cast<double>(counts[k]) / static_cast<double>(kDraws);
    EXPECT_NEAR(observed, expected, 0.01) << "rank " << k;
  }
  // With s = 1 over 32 ranks, rank 0 carries ~4x rank 3's mass.
  EXPECT_GT(counts[0], 3 * counts[3]);
}

TEST(Zipf, SamplesStayInRange) {
  const ZipfSampler zipf(7, 2.0);
  rng::Stream rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.sample(rng), 7u);
  }
}

TEST(OpenLoop, RequiresPositiveRate) {
  WorkloadGenerator gen(base_config(), 1, map_for(base_config()));
  OpenLoopConfig cfg;
  cfg.arrival_rate = 0.0;
  EXPECT_THROW(OpenLoopSource(cfg, gen, 1), std::invalid_argument);
}

TEST(OpenLoop, PoissonRateRoughlyRespected) {
  WorkloadGenerator gen(base_config(), 2, map_for(base_config()));
  OpenLoopConfig cfg;
  cfg.arrival_rate = 0.5;
  cfg.invalid_fraction = 0.0;
  OpenLoopSource source(cfg, gen, 7);
  // 200 time units at rate 0.5 -> ~100 arrivals (sd = 10); the pool has
  // 256 spendable outputs and commits are not needed at this volume.
  const auto arrivals = source.arrivals_until(200.0);
  EXPECT_GT(arrivals.size(), 60u);
  EXPECT_LT(arrivals.size(), 140u);
  EXPECT_EQ(source.clock(), 200.0);
  EXPECT_EQ(source.generated(), arrivals.size());
  // Timestamps are strictly inside the window and non-decreasing.
  double prev = 0.0;
  for (const auto& a : arrivals) {
    EXPECT_GE(a.time, prev);
    EXPECT_LT(a.time, 200.0);
    prev = a.time;
  }
}

TEST(OpenLoop, WindowSlicingDoesNotChangeTheStream) {
  WorkloadGenerator gen_a(base_config(), 3, map_for(base_config()));
  WorkloadGenerator gen_b(base_config(), 3, map_for(base_config()));
  OpenLoopConfig cfg;
  cfg.arrival_rate = 0.4;
  OpenLoopSource one(cfg, gen_a, 11);
  OpenLoopSource sliced(cfg, gen_b, 11);

  const auto whole = one.arrivals_until(100.0);
  std::vector<Arrival> parts;
  for (double t = 20.0; t <= 100.0; t += 20.0) {
    auto window = sliced.arrivals_until(t);
    parts.insert(parts.end(), window.begin(), window.end());
  }
  ASSERT_EQ(whole.size(), parts.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i].time, parts[i].time);
    EXPECT_EQ(whole[i].tx.id(), parts[i].tx.id());
  }
}

TEST(OpenLoop, ExhaustionCountsLostArrivals) {
  auto cfg = base_config();
  cfg.shards = 2;
  cfg.users = 6;
  cfg.outputs_per_user = 1;
  WorkloadGenerator gen(cfg, 4, map_for(cfg));
  OpenLoopConfig ol;
  ol.arrival_rate = 1.0;
  ol.cross_shard_fraction = 0.0;
  OpenLoopSource source(ol, gen, 5);
  // Only 6 spendable outputs exist and nothing commits: once the pool
  // drains, every further arrival is exhausted, not silently absorbed.
  const auto arrivals = source.arrivals_until(100.0);
  EXPECT_LE(arrivals.size(), 6u);
  EXPECT_GT(arrivals.size(), 0u);
  EXPECT_GT(source.exhausted(), 50u);
  EXPECT_EQ(source.generated(), arrivals.size());
}

TEST(OpenLoop, ZipfSkewConcentratesShardLoad) {
  // A heavy exponent concentrates arrivals on the hottest account's
  // shard; replenish via commits so the generator can keep serving the
  // hot account instead of falling back.
  auto cfg = base_config();
  cfg.cross_shard_fraction = 0.0;
  WorkloadGenerator gen(cfg, 6, map_for(cfg));
  OpenLoopConfig ol;
  ol.arrival_rate = 0.5;
  ol.cross_shard_fraction = 0.0;
  ol.zipf_s = 2.0;
  OpenLoopSource source(ol, gen, 9);
  std::map<ShardId, int> per_shard;
  for (int window = 1; window <= 10; ++window) {
    for (auto& a : source.arrivals_until(20.0 * window)) {
      per_shard[input_shard(a.tx, *gen.shard_map())] += 1;
      gen.mark_committed(a.tx);
    }
  }
  int total = 0, hottest = 0;
  for (const auto& [shard, count] : per_shard) {
    total += count;
    hottest = std::max(hottest, count);
  }
  ASSERT_GT(total, 50);
  // Uniform load would put ~25% on each of the 4 shards; the skewed
  // source concentrates well past that on the hot shard.
  EXPECT_GT(hottest, total / 3);
}

}  // namespace
}  // namespace cyc::ledger
