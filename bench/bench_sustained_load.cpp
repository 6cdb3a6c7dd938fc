// Sustained-load saturation sweep: open-loop Poisson/Zipf traffic ramped
// from well under nominal capacity to well past it, measuring end-to-end
// arrival -> commit latency percentiles, goodput vs offered load and
// per-shard mempool pressure (the measurement methodology of the sharding
// scalability literature: offered load is set by the source, not by what
// the system absorbs).
//
// Nominal capacity is m * txs_per_committee transactions per round; the
// ramp crosses it, so the artifact always contains saturated points where
// goodput plateaus while offered load keeps growing and the excess shows
// up as mempool backlog, admission drops and rising tail latency.
//
// Sweep points are independent Engine instances on the support/parallel
// pool; each simulator is single-threaded and deterministic per seed.
// Every number in the artifact is simulated time or a counter (the
// contract in bench_util.hpp).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "epoch/manager.hpp"
#include "protocol/engine.hpp"
#include "support/math.hpp"
#include "support/parallel.hpp"

using namespace cyc;

namespace {

constexpr std::size_t kRounds = 30;

/// Offered load as a multiple of nominal capacity; the >= 1.1 entries are
/// the saturated regime.
constexpr double kLoadFactors[] = {0.3, 0.6, 0.9, 1.1, 1.4, 1.8};

protocol::Params base_params() {
  protocol::Params params;
  params.m = 3;
  params.c = 9;
  params.lambda = 3;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.2;
  params.invalid_fraction = 0.0;
  params.users = 40 * params.m;
  params.zipf_s = 1.1;
  params.mempool_cap = 32;
  params.seed = 7;
  return params;
}

struct Point {
  double load_factor = 0;
  double offered_rate = 0;       ///< arrivals per unit simulated time
  double offered_per_round = 0;  ///< offered_rate * round duration
  double goodput_per_round = 0;  ///< committed / rounds
  double utilization = 0;        ///< goodput / offered (per round)
  double p50 = 0, p99 = 0, p999 = 0;
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t mempool_dropped = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t drained = 0;
  std::uint64_t committed = 0;
  std::uint64_t final_backlog = 0;
  std::uint64_t peak_backlog = 0;
  std::uint64_t source_shortfall = 0;
  std::size_t latency_samples = 0;
  std::vector<std::size_t> final_occupancy;
  std::vector<net::Counter> phases;
};

Point measure(double load_factor) {
  protocol::Params params = base_params();
  const double capacity_rate =
      static_cast<double>(params.m * params.txs_per_committee) /
      params.round_duration();
  params.arrival_rate = load_factor * capacity_rate;

  protocol::Engine engine(params, protocol::AdversaryConfig{});
  const auto report = engine.run(kRounds);

  Point p;
  p.load_factor = load_factor;
  p.offered_rate = params.arrival_rate;
  p.offered_per_round = params.arrival_rate * params.round_duration();

  std::vector<double> latencies;
  for (const auto& r : report.rounds) {
    const auto& ol = r.open_loop;
    p.arrived += ol.arrived;
    p.admitted += ol.admitted;
    p.mempool_dropped += ol.mempool_dropped;
    p.exhausted += ol.exhausted;
    p.drained += ol.drained;
    p.peak_backlog = std::max(p.peak_backlog, ol.backlog);
    p.committed += r.txs_committed;
    latencies.insert(latencies.end(), ol.latencies.begin(),
                     ol.latencies.end());
  }
  const auto& last = report.rounds.back().open_loop;
  p.final_backlog = last.backlog;
  p.source_shortfall = last.source_shortfall;
  p.final_occupancy = last.occupancy;
  p.latency_samples = latencies.size();
  const math::SortedSample sorted_latencies(std::move(latencies));
  p.p50 = sorted_latencies.percentile(0.50);
  p.p99 = sorted_latencies.percentile(0.99);
  p.p999 = sorted_latencies.percentile(0.999);
  p.goodput_per_round =
      static_cast<double>(p.committed) / static_cast<double>(kRounds);
  p.utilization = p.offered_per_round > 0.0
                      ? p.goodput_per_round / p.offered_per_round
                      : 0.0;
  p.phases = bench::phase_totals(report);
  return p;
}

// --- Hot-shard skew + load-aware re-draw (src/epoch/rebalance.*). ---------
//
// A heavily Zipf-skewed open-loop source past nominal capacity concentrates
// arrivals on whichever shard hosts the hottest accounts; that shard's
// mempool saturates and its arrival -> commit tail stretches while the
// others idle. The pair of points below runs the identical multi-epoch
// schedule with the epoch re-draw static vs load-aware and reports the
// hottest shard's drop count and latency tail for each — the before/after
// evidence for the rebalance. Deterministic like every other point: the
// planner is RNG-free and both runs are fixed-seed.

constexpr std::size_t kSkewEpochs = 3;
constexpr std::size_t kSkewRoundsPerEpoch = 10;
constexpr double kSkewZipf = 1.4;
constexpr double kSkewLoadFactor = 1.1;
constexpr std::uint32_t kSkewMempoolCap = 24;
constexpr std::uint32_t kSkewMoves = 4;

protocol::Params skew_params() {
  protocol::Params params = base_params();
  params.zipf_s = kSkewZipf;
  params.mempool_cap = kSkewMempoolCap;
  const double capacity_rate =
      static_cast<double>(params.m * params.txs_per_committee) /
      params.round_duration();
  params.arrival_rate = kSkewLoadFactor * capacity_rate;
  return params;
}

struct SkewPoint {
  std::string mode;  ///< "static" | "rebalance"
  std::uint64_t committed = 0;
  std::uint64_t mempool_dropped = 0;
  std::vector<std::uint64_t> shard_dropped;
  std::uint32_t hottest_shard = 0;
  std::uint64_t hottest_dropped = 0;
  double hottest_p50 = 0, hottest_p99 = 0;
  std::size_t hottest_samples = 0;
  double overall_p99 = 0;
  std::uint64_t planned_moves = 0;
  std::uint64_t migrated_outputs = 0;
};

SkewPoint measure_skew(bool rebalance) {
  protocol::Params params = skew_params();
  params.rebalance = rebalance;
  params.rebalance_moves = kSkewMoves;

  epoch::EpochConfig config;
  config.epochs = kSkewEpochs;
  config.rounds_per_epoch = kSkewRoundsPerEpoch;
  epoch::EpochManager manager(params, protocol::AdversaryConfig{}, config);

  SkewPoint p;
  p.mode = rebalance ? "rebalance" : "static";
  std::vector<double> all_latencies;
  std::vector<std::vector<double>> shard_latencies(params.m);
  while (!manager.finished()) {
    const auto report = manager.run_round();
    p.committed += report.txs_committed;
    const auto& ol = report.open_loop;
    p.mempool_dropped += ol.mempool_dropped;
    all_latencies.insert(all_latencies.end(), ol.latencies.begin(),
                         ol.latencies.end());
    for (std::size_t i = 0; i < ol.latencies.size(); ++i) {
      const std::uint32_t s =
          i < ol.latency_shards.size() ? ol.latency_shards[i] : 0;
      if (s < shard_latencies.size()) {
        shard_latencies[s].push_back(ol.latencies[i]);
      }
    }
  }

  const auto& pools = manager.engine().mempools();
  p.shard_dropped.resize(pools.size(), 0);
  for (std::size_t k = 0; k < pools.size(); ++k) {
    p.shard_dropped[k] = pools[k].dropped();
    if (p.shard_dropped[k] > p.hottest_dropped) {
      p.hottest_dropped = p.shard_dropped[k];
      p.hottest_shard = static_cast<std::uint32_t>(k);
    }
  }
  p.hottest_samples = shard_latencies[p.hottest_shard].size();
  const math::SortedSample hottest(
      std::move(shard_latencies[p.hottest_shard]));
  p.hottest_p50 = hottest.percentile(0.50);
  p.hottest_p99 = hottest.percentile(0.99);
  const math::SortedSample overall(std::move(all_latencies));
  p.overall_p99 = overall.percentile(0.99);
  for (const auto& handoff : manager.handoffs()) {
    if (handoff.plan) {
      p.planned_moves += handoff.plan->moves.size();
      p.migrated_outputs += handoff.plan->migrated_outputs;
    }
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<double> factors(std::begin(kLoadFactors),
                                    std::end(kLoadFactors));

  const auto points = support::parallel_sweep(
      factors.size(), [&](std::size_t i) { return measure(factors[i]); });

  const protocol::Params base = base_params();
  std::printf("=== Sustained load: latency and goodput vs offered load ===\n");
  std::printf("capacity: %u tx/round over a %.0f-unit round\n",
              base.m * base.txs_per_committee, base.round_duration());
  std::printf("%-6s %-12s %-12s %-6s %-9s %-9s %-9s %-8s %-8s\n", "load",
              "offered/rnd", "goodput/rnd", "util", "p50", "p99", "p999",
              "dropped", "backlog");
  for (const auto& p : points) {
    std::printf(
        "%-6.1f %-12.1f %-12.1f %-6.2f %-9.1f %-9.1f %-9.1f %-8llu %-8llu\n",
        p.load_factor, p.offered_per_round, p.goodput_per_round, p.utilization,
        p.p50, p.p99, p.p999,
        static_cast<unsigned long long>(p.mempool_dropped),
        static_cast<unsigned long long>(p.final_backlog));
  }

  std::size_t saturated = 0;
  for (const auto& p : points) {
    if (p.utilization < 0.9) saturated += 1;
  }
  std::printf("\nsaturated points (utilization < 0.9): %zu of %zu\n", saturated,
              points.size());
  std::printf(
      "Shape check: goodput tracks offered load below capacity, then\n"
      "plateaus at ~%u tx/round while tail latency and backlog grow.\n",
      base.m * base.txs_per_committee);

  support::JsonWriter json;
  json.begin_object();
  json.field("bench", "sustained_load");
  json.key("params");
  {
    json.begin_object();
    json.field("m", base.m);
    json.field("c", base.c);
    json.field("lambda", base.lambda);
    json.field("referee_size", base.referee_size);
    json.field("txs_per_committee", base.txs_per_committee);
    json.field("cross_shard_fraction", base.cross_shard_fraction);
    json.field("users", base.users);
    json.field("zipf_s", base.zipf_s);
    json.field("mempool_cap", base.mempool_cap);
    json.field("round_duration", base.round_duration());
    json.field("capacity_per_round",
               static_cast<std::uint64_t>(base.m * base.txs_per_committee));
    json.field("seed", base.seed);
    json.field("rounds", static_cast<std::uint64_t>(kRounds));
    json.end_object();
  }
  json.key("points");
  json.begin_array();
  for (const auto& p : points) {
    json.begin_object();
    json.field("load_factor", p.load_factor);
    json.field("offered_rate", p.offered_rate);
    json.field("offered_per_round", p.offered_per_round);
    json.field("goodput_per_round", p.goodput_per_round);
    json.field("utilization", p.utilization);
    json.field("latency_p50", p.p50);
    json.field("latency_p99", p.p99);
    json.field("latency_p999", p.p999);
    json.field("latency_samples",
               static_cast<std::uint64_t>(p.latency_samples));
    json.field("arrived", p.arrived);
    json.field("admitted", p.admitted);
    json.field("mempool_dropped", p.mempool_dropped);
    json.field("exhausted", p.exhausted);
    json.field("drained", p.drained);
    json.field("committed", p.committed);
    json.field("final_backlog", p.final_backlog);
    json.field("peak_backlog", p.peak_backlog);
    json.field("source_shortfall", p.source_shortfall);
    json.key("final_occupancy");
    json.begin_array();
    for (const auto occ : p.final_occupancy) {
      json.value(static_cast<std::uint64_t>(occ));
    }
    json.end_array();
    bench::write_phase_breakdown(json, p.phases);
    json.end_object();
  }
  json.end_array();
  json.field("saturated_points", static_cast<std::uint64_t>(saturated));

  // --- Skewed hot-shard pair: static vs load-aware epoch re-draw. --------
  const auto skew_points = support::parallel_sweep(
      std::size_t{2}, [&](std::size_t i) { return measure_skew(i == 1); });
  std::printf("\n=== Hot-shard skew (zipf_s %.1f, load %.1fx): static vs "
              "rebalance ===\n",
              kSkewZipf, kSkewLoadFactor);
  std::printf("%-10s %-9s %-14s %-12s %-12s %-9s %-7s\n", "mode", "hottest",
              "hottest-drops", "hottest-p50", "hottest-p99", "committed",
              "moves");
  for (const auto& p : skew_points) {
    std::printf("%-10s %-9u %-14llu %-12.1f %-12.1f %-9llu %-7llu\n",
                p.mode.c_str(), p.hottest_shard,
                static_cast<unsigned long long>(p.hottest_dropped),
                p.hottest_p50, p.hottest_p99,
                static_cast<unsigned long long>(p.committed),
                static_cast<unsigned long long>(p.planned_moves));
  }

  json.key("skew_rebalance");
  json.begin_object();
  const protocol::Params skew = skew_params();
  json.field("zipf_s", skew.zipf_s);
  json.field("load_factor", kSkewLoadFactor);
  json.field("mempool_cap", skew.mempool_cap);
  json.field("epochs", static_cast<std::uint64_t>(kSkewEpochs));
  json.field("rounds_per_epoch", static_cast<std::uint64_t>(kSkewRoundsPerEpoch));
  json.field("rebalance_moves", kSkewMoves);
  json.key("points");
  json.begin_array();
  for (const auto& p : skew_points) {
    json.begin_object();
    json.field("mode", p.mode);
    json.field("committed", p.committed);
    json.field("mempool_dropped", p.mempool_dropped);
    json.key("shard_dropped");
    json.begin_array();
    for (const auto d : p.shard_dropped) json.value(d);
    json.end_array();
    json.field("hottest_shard", p.hottest_shard);
    json.field("hottest_dropped", p.hottest_dropped);
    json.field("hottest_latency_p50", p.hottest_p50);
    json.field("hottest_latency_p99", p.hottest_p99);
    json.field("hottest_latency_samples",
               static_cast<std::uint64_t>(p.hottest_samples));
    json.field("overall_latency_p99", p.overall_p99);
    json.field("planned_moves", p.planned_moves);
    json.field("migrated_outputs", p.migrated_outputs);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();
  bench::write_artifact("sustained_load", json, argc, argv);
  return 0;
}
