// E2 — Table II: measured communication per phase and role on the
// message-level engine, swept over network size, with a scaling
// classification against the table's O(.) classes.
//
// The five configurations run concurrently on the support/parallel.hpp
// pool (one deterministic single-threaded Engine per configuration).
// Results land in bench/out/BENCH_table2_complexity.json (or argv[1]).
#include <cstdio>
#include <vector>

#include "analysis/complexity.hpp"
#include "bench_util.hpp"
#include "protocol/engine.hpp"
#include "support/parallel.hpp"

using namespace cyc;
using protocol::Role;

namespace {

struct Sweep {
  std::uint32_t m, c;
};

struct Sample {
  double n, m, c;
  std::map<Role, std::vector<double>> msgs;   // per phase, per node of role
  std::map<Role, std::vector<double>> bytes;  // per phase, per node of role
  double wall_ms = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<net::Counter> phases;
};

// Paper-scale configurations (m >= 32) enable intra-engine shard
// parallelism; the historical points keep the sequential reference path
// so their perf fields stay comparable across revisions. Protocol
// numbers are byte-identical either way (the determinism contract
// scripts/run_checks.sh enforces).
constexpr std::uint32_t kParallelFrom = 32;
constexpr unsigned kEngineThreads = 4;

Sample measure(const Sweep& sweep) {
  protocol::Params params;
  params.m = sweep.m;
  params.c = sweep.c;
  params.lambda = 2;
  params.referee_size = 5;
  params.txs_per_committee = 8;
  params.cross_shard_fraction = 0.25;
  params.invalid_fraction = 0.0;
  params.users = 16 * sweep.m;
  params.seed = 99;
  protocol::EngineOptions options;
  if (sweep.m >= kParallelFrom) options.engine_threads = kEngineThreads;
  bench::PointProbe probe;
  protocol::Engine engine(params, protocol::AdversaryConfig{}, options);
  const auto report = engine.run_round();

  Sample sample;
  sample.n = static_cast<double>(params.total_nodes());
  sample.m = sweep.m;
  sample.c = sweep.c;
  for (const auto& [role, phases] : report.traffic_by_role_phase) {
    std::vector<double> per_node_msgs, per_node_bytes;
    for (const auto& counter : phases) {
      const double nodes = static_cast<double>(report.role_counts.at(role));
      per_node_msgs.push_back(
          static_cast<double>(counter.msgs_sent + counter.msgs_recv) / nodes);
      per_node_bytes.push_back(
          static_cast<double>(counter.bytes_sent + counter.bytes_recv) /
          nodes);
    }
    sample.msgs[role] = per_node_msgs;
    sample.bytes[role] = per_node_bytes;
  }
  sample.wall_ms = probe.wall_ms();
  sample.payload_bytes = probe.payload_bytes();
  sample.phases = bench::phase_totals(report);
  return sample;
}

struct Cell {
  net::Phase phase;
  Role role;
  const char* role_name;
  bool is_bytes;
  std::vector<double> measured;  // one value per sweep config (or empty)
  std::string fitted;
  std::string expected;
};

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Sweep> sweeps = {{2, 8},  {4, 8},  {2, 16}, {4, 16},
                                     {6, 12}, {32, 8}, {64, 8}};
  std::printf("measuring %zu configurations (parallel)...\n", sweeps.size());
  bench::PointProbe total;
  const auto samples = support::parallel_sweep(
      sweeps.size(), [&](std::size_t i) { return measure(sweeps[i]); });
  const double total_ms = total.wall_ms();

  const net::Phase phases[] = {
      net::Phase::kCommitteeConfig, net::Phase::kSemiCommit,
      net::Phase::kIntraConsensus,  net::Phase::kInterConsensus,
      net::Phase::kReputation,      net::Phase::kSelection,
      net::Phase::kBlock};
  const Role roles[] = {Role::kCommon, Role::kLeader, Role::kReferee};
  const char* role_names[] = {"common", "leader/partial", "referee"};

  std::vector<Cell> cells;
  auto collect = [&](bool is_bytes) {
    for (net::Phase phase : phases) {
      for (std::size_t ri = 0; ri < 3; ++ri) {
        Cell cell;
        cell.phase = phase;
        cell.role = roles[ri];
        cell.role_name = role_names[ri];
        cell.is_bytes = is_bytes;
        std::vector<double> n, m, c, y;
        for (const auto& sample : samples) {
          const auto& table = is_bytes ? sample.bytes : sample.msgs;
          auto it = table.find(roles[ri]);
          if (it == table.end()) continue;
          const double v = it->second[static_cast<std::size_t>(phase)];
          if (v <= 0.0) continue;
          n.push_back(sample.n);
          m.push_back(sample.m);
          c.push_back(sample.c);
          y.push_back(v);
        }
        cell.expected =
            analysis::complexity_name(analysis::expected_comm(phase, roles[ri]));
        if (y.size() == samples.size()) {
          cell.measured = y;
          cell.fitted = analysis::complexity_name(
              analysis::classify_scaling(n, m, c, y));
        } else {
          cell.fitted = std::string(1, '-');
        }
        cells.push_back(std::move(cell));
      }
    }
  };
  collect(/*is_bytes=*/false);
  collect(/*is_bytes=*/true);

  auto print_section = [&](bool is_bytes) {
    std::printf("\n=== Table II (measured): avg %s per node, by phase & role "
                "===\n",
                is_bytes ? "BYTES" : "messages");
    if (!is_bytes) {
      std::printf("config: (m,c) in {");
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        std::printf("%s(%u,%u)", i > 0 ? "," : "", sweeps[i].m, sweeps[i].c);
      }
      std::printf("}\n\n");
    }
    std::printf("%-18s %-16s %-72s %-10s %-10s\n", "phase", "role",
                is_bytes ? "measured bytes across sweep"
                         : "measured msgs across sweep",
                "fitted", "paper");
    for (const auto& cell : cells) {
      if (cell.is_bytes != is_bytes) continue;
      std::string measured = "-";
      if (!cell.measured.empty()) {
        measured.clear();
        char buf[32];
        for (std::size_t i = 0; i < cell.measured.size(); ++i) {
          std::snprintf(buf, sizeof(buf), is_bytes ? "%s%9.0f" : "%s%7.1f",
                        i > 0 ? " " : "", cell.measured[i]);
          measured += buf;
        }
      }
      std::printf("%-18s %-16s %-72s %-10s %-10s\n",
                  std::string(net::phase_name(cell.phase)).c_str(),
                  cell.role_name, measured.c_str(), cell.fitted.c_str(),
                  cell.expected.c_str());
    }
  };
  print_section(false);
  print_section(true);

  std::printf("\nsweep wall-clock (parallel): %.1f ms\n", total_ms);
  std::printf(
      "\nShape check: the fitted classes should match the paper's columns\n"
      "for the dominant cells (config O(c)/O(c^2), intra O(c), referee\n"
      "block O(mn), semi-commitment referee O(m^2)); message counts match\n"
      "the per-message cells, byte volumes the per-volume cells — see\n"
      "EXPERIMENTS.md for the per-cell discussion.\n");

  support::JsonWriter json;
  json.begin_object();
  json.field("bench", "table2_complexity");
  json.key("configs");
  json.begin_array();
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    json.begin_object();
    json.field("m", sweeps[i].m);
    json.field("c", sweeps[i].c);
    json.field("n", samples[i].n);
    json.field("wall_ms", samples[i].wall_ms);
    json.field("payload_bytes", samples[i].payload_bytes);
    bench::write_phase_breakdown(json, samples[i].phases);
    json.end_object();
  }
  json.end_array();
  json.key("cells");
  json.begin_array();
  for (const auto& cell : cells) {
    if (cell.measured.empty()) continue;
    json.begin_object();
    json.field("phase", net::phase_name(cell.phase));
    json.field("role", cell.role_name);
    json.field("metric", cell.is_bytes ? "bytes_per_node" : "msgs_per_node");
    json.key("measured");
    json.begin_array();
    for (double v : cell.measured) json.value(v);
    json.end_array();
    json.field("fitted", cell.fitted);
    json.field("paper", cell.expected);
    json.end_object();
  }
  json.end_array();
  json.field("sweep_wall_ms", total_ms);
  json.end_object();
  bench::write_artifact("table2_complexity", json, argc, argv);
  return 0;
}
