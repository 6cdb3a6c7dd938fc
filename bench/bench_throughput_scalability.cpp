// E6 — §III-D scalability: |TX| grows quasi-linearly with n. Sweeps the
// number of committees at fixed committee size on the full
// message-level engine and reports committed transactions per round.
//
// Sweep points are independent Engine instances and run concurrently on
// the support/parallel.hpp pool; each simulator stays single-threaded
// and deterministic per seed, so the numbers are identical to the
// sequential run. Results land in bench/out/BENCH_throughput_scalability
// .json (or argv[1]).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "protocol/engine.hpp"
#include "support/math.hpp"
#include "support/parallel.hpp"

using namespace cyc;

namespace {

struct Point {
  std::uint32_t m = 0;
  double n = 0;
  double committed = 0;
  double offered = 0;
  double msgs_per_node = 0;
  double wall_ms = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<net::Counter> phases;
};

protocol::Params params_for(std::uint32_t m) {
  protocol::Params params;
  params.m = m;
  params.c = 10;
  params.lambda = 2;
  params.referee_size = 5;
  params.txs_per_committee = 12;
  params.cross_shard_fraction = 0.2;
  params.invalid_fraction = 0.0;
  params.users = 24 * m;
  params.seed = 5;
  return params;
}

constexpr std::size_t kRounds = 2;

// Paper-scale points (m >= 32) run the PoW search on engine threads;
// the smaller historical points keep the sequential reference path so
// their perf fields (wall_ms, payload counters) stay comparable across
// revisions. Protocol numbers are byte-identical either way — that is
// the determinism contract scripts/run_checks.sh enforces.
constexpr std::uint32_t kParallelFrom = 32;
constexpr unsigned kEngineThreads = 4;

Point measure(std::uint32_t m) {
  const protocol::Params params = params_for(m);
  protocol::EngineOptions options;
  if (m >= kParallelFrom) options.engine_threads = kEngineThreads;
  bench::PointProbe probe;
  protocol::Engine engine(params, protocol::AdversaryConfig{}, options);
  const auto report = engine.run(kRounds);

  Point p;
  p.m = m;
  p.wall_ms = probe.wall_ms();
  p.payload_allocs = probe.payload_allocs();
  p.payload_bytes = probe.payload_bytes();
  for (const auto& r : report.rounds) {
    p.committed += static_cast<double>(r.txs_committed);
    p.offered += static_cast<double>(r.txs_offered);
  }
  p.committed /= static_cast<double>(report.rounds.size());
  p.offered /= static_cast<double>(report.rounds.size());
  p.n = static_cast<double>(params.total_nodes());
  p.msgs_per_node =
      static_cast<double>(report.rounds.back().traffic_total.msgs_sent) / p.n;
  p.phases = bench::phase_totals(report);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::uint32_t> ms = {2, 3, 4, 6, 8, 32, 64};

  bench::PointProbe total;
  const auto points = support::parallel_sweep(
      ms.size(), [&](std::size_t i) { return measure(ms[i]); });
  const double total_ms = total.wall_ms();

  std::printf("=== Scalability: committed transactions vs network size ===\n");
  std::printf("%-8s %-8s %-8s %-14s %-14s %-12s %-10s %-12s\n", "m", "c", "n",
              "committed/rnd", "offered/rnd", "msgs/node", "wall ms",
              "alloc bytes");
  std::vector<double> log_n, log_tx;
  for (const auto& p : points) {
    std::printf("%-8u %-8u %-8.0f %-14.1f %-14.1f %-12.1f %-10.1f %-12llu\n",
                p.m, params_for(p.m).c, p.n, p.committed, p.offered,
                p.msgs_per_node, p.wall_ms,
                static_cast<unsigned long long>(p.payload_bytes));
    log_n.push_back(std::log(p.n));
    log_tx.push_back(std::log(p.committed));
  }

  const double slope = math::fit_slope(log_n, log_tx);
  std::printf("\nlog-log slope of committed-vs-n: %.3f\n", slope);
  std::printf("sweep wall-clock (parallel): %.1f ms\n", total_ms);
  std::printf(
      "Shape check: slope ~1 (quasi-linear growth, the paper's scalability\n"
      "property); per-node message load stays bounded as n grows.\n");

  support::JsonWriter json;
  json.begin_object();
  json.field("bench", "throughput_scalability");
  json.key("params");
  {
    const protocol::Params base = params_for(2);
    json.begin_object();
    json.field("c", base.c);
    json.field("lambda", base.lambda);
    json.field("referee_size", base.referee_size);
    json.field("txs_per_committee", base.txs_per_committee);
    json.field("cross_shard_fraction", base.cross_shard_fraction);
    json.field("seed", base.seed);
    json.field("rounds", static_cast<std::uint64_t>(kRounds));
    json.end_object();
  }
  json.key("points");
  json.begin_array();
  for (const auto& p : points) {
    json.begin_object();
    json.field("m", p.m);
    json.field("n", p.n);
    json.field("committed_per_round", p.committed);
    json.field("offered_per_round", p.offered);
    json.field("msgs_per_node", p.msgs_per_node);
    json.field("wall_ms", p.wall_ms);
    json.field("payload_allocs", p.payload_allocs);
    json.field("payload_bytes", p.payload_bytes);
    bench::write_phase_breakdown(json, p.phases);
    json.end_object();
  }
  json.end_array();
  json.field("loglog_slope", slope);
  json.field("sweep_wall_ms", total_ms);
  json.end_object();
  bench::write_artifact("throughput_scalability", json, argc, argv);
  return 0;
}
