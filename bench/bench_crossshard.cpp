// E9 — §IV-D inter-committee consensus: cost and latency of cross-shard
// transactions as the cross-shard fraction and the committee count vary.
//
// Both sweeps run their points concurrently on the support/parallel.hpp
// pool (one deterministic single-threaded Engine per point). Results
// land in bench/out/BENCH_crossshard.json (or argv[1]).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "protocol/engine.hpp"
#include "support/parallel.hpp"

using namespace cyc;

namespace {

struct Row {
  std::uint32_t m = 0;
  double cross_fraction = 0;
  double cross_committed = 0;
  double intra_committed = 0;
  double inter_msgs = 0;
  double latency = 0;
  double wall_ms = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<net::Counter> phases;
};

protocol::Params params_for(std::uint32_t m, double cross_fraction,
                            std::uint64_t seed) {
  protocol::Params params;
  params.m = m;
  params.c = 9;
  params.lambda = 2;
  params.referee_size = 5;
  params.txs_per_committee = 12;
  params.cross_shard_fraction = cross_fraction;
  params.invalid_fraction = 0.0;
  params.users = 24 * m;
  params.seed = seed;
  return params;
}

constexpr std::uint64_t kFracSweepSeed = 11;
constexpr std::uint64_t kCommitteeSweepSeed = 13;

Row measure(std::uint32_t m, double cross_fraction, std::uint64_t seed) {
  const protocol::Params params = params_for(m, cross_fraction, seed);
  // Paper-scale committee counts run the PoW search on engine threads;
  // the historical points keep the sequential reference path (protocol
  // numbers are byte-identical either way).
  protocol::EngineOptions options;
  if (m >= 32) options.engine_threads = 4;
  bench::PointProbe probe;
  protocol::Engine engine(params, protocol::AdversaryConfig{}, options);
  const auto report = engine.run_round();
  Row row;
  row.m = m;
  row.cross_fraction = cross_fraction;
  row.cross_committed = static_cast<double>(report.cross_committed);
  row.intra_committed = static_cast<double>(report.intra_committed);
  row.latency = report.round_latency;
  for (const auto& [role, phases] : report.traffic_by_role_phase) {
    row.inter_msgs += static_cast<double>(
        phases[static_cast<std::size_t>(net::Phase::kInterConsensus)]
            .msgs_sent *
        report.role_counts.at(role));
  }
  row.wall_ms = probe.wall_ms();
  row.payload_bytes = probe.payload_bytes();
  row.phases = bench::phase_totals(report);
  return row;
}

void json_rows(support::JsonWriter& json, const std::vector<Row>& rows) {
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.field("m", row.m);
    json.field("cross_fraction", row.cross_fraction);
    json.field("cross_committed", row.cross_committed);
    json.field("intra_committed", row.intra_committed);
    json.field("inter_msgs", row.inter_msgs);
    json.field("latency", row.latency);
    json.field("wall_ms", row.wall_ms);
    json.field("payload_bytes", row.payload_bytes);
    bench::write_phase_breakdown(json, row.phases);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<double> fractions = {0.0, 0.2, 0.4, 0.6, 0.8};
  const std::vector<std::uint32_t> ms = {2, 4, 6, 8};

  bench::PointProbe total;
  const auto frac_rows = support::parallel_sweep(
      fractions.size(),
      [&](std::size_t i) { return measure(4, fractions[i], kFracSweepSeed); });
  const auto m_rows = support::parallel_sweep(ms.size(), [&](std::size_t i) {
    return measure(ms[i], 0.3, kCommitteeSweepSeed);
  });
  const double total_ms = total.wall_ms();

  std::printf("=== Cross-shard handling: sweep over cross fraction (m=4) ===\n");
  std::printf("%-12s %-10s %-10s %-14s %-10s\n", "cross frac", "cross/rnd",
              "intra/rnd", "inter msgs", "wall ms");
  for (const auto& row : frac_rows) {
    std::printf("%-12.1f %-10.0f %-10.0f %-14.0f %-10.1f\n",
                row.cross_fraction, row.cross_committed, row.intra_committed,
                row.inter_msgs, row.wall_ms);
  }

  std::printf("\n=== Sweep over committee count (cross fraction 0.3) ===\n");
  std::printf("%-6s %-10s %-14s %-12s %-10s\n", "m", "cross/rnd", "inter msgs",
              "latency", "wall ms");
  for (const auto& row : m_rows) {
    std::printf("%-6u %-10.0f %-14.0f %-12.1f %-10.1f\n", row.m,
                row.cross_committed, row.inter_msgs, row.latency, row.wall_ms);
  }

  std::printf("\nsweep wall-clock (parallel): %.1f ms\n", total_ms);
  std::printf(
      "\nShape check: inter-committee traffic grows with the cross-shard\n"
      "fraction and with m (two Alg. 3 instances plus certified transfers\n"
      "per committee pair); intra throughput falls as the mix shifts.\n"
      "Round latency stays flat — cross-shard work is parallel across\n"
      "committees, the paper's central scalability argument.\n");

  support::JsonWriter json;
  json.begin_object();
  json.field("bench", "crossshard");
  json.key("params");
  {
    const protocol::Params base = params_for(2, 0.0, 0);
    json.begin_object();
    json.field("c", base.c);
    json.field("lambda", base.lambda);
    json.field("referee_size", base.referee_size);
    json.field("txs_per_committee", base.txs_per_committee);
    json.field("frac_sweep_seed", kFracSweepSeed);
    json.field("m_sweep_seed", kCommitteeSweepSeed);
    json.end_object();
  }
  json.key("fraction_sweep");
  json_rows(json, frac_rows);
  json.key("committee_sweep");
  json_rows(json, m_rows);
  json.field("sweep_wall_ms", total_ms);
  json.end_object();
  bench::write_artifact("crossshard", json, argc, argv);
  return 0;
}
