// Epoch reconfiguration cost: what one boundary (PVSS beacon + PoW
// identity churn + full committee re-draw + handoff construction) costs
// as the network (n) and the committee count (m) grow.
//
// Each sweep point runs a two-epoch schedule (one round per epoch, one
// boundary in between) on its own deterministic Engine; the points run
// concurrently on the support/parallel.hpp pool. Results land in
// bench/out/BENCH_epoch_transition.json (or argv[1]).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "epoch/manager.hpp"
#include "support/parallel.hpp"

using namespace cyc;

namespace {

struct Row {
  std::uint32_t m = 0;
  std::uint32_t c = 0;
  std::uint32_t n = 0;          ///< active seats (referees + m*c)
  std::uint32_t standby = 0;    ///< join pool provisioned
  std::uint64_t joined = 0;     ///< identities admitted at the boundary
  std::uint64_t retired = 0;
  std::uint64_t carried_txs = 0;
  std::uint64_t handoff_bytes = 0;
  double transition_ms = 0;     ///< boundary cost (the measured quantity)
  double wall_ms = 0;           ///< whole two-epoch run
  std::uint64_t payload_bytes = 0;
  std::vector<net::Counter> phases;
};

constexpr std::uint64_t kSweepSeed = 17;

protocol::Params params_for(std::uint32_t m, std::uint32_t c) {
  protocol::Params params;
  params.m = m;
  params.c = c;
  params.lambda = 2;
  params.referee_size = 5;
  params.txs_per_committee = 12;
  params.cross_shard_fraction = 0.2;
  params.invalid_fraction = 0.0;
  params.users = 24 * m;
  params.seed = kSweepSeed;
  // Join pool sized so the churn budget is met at every shape.
  params.standby = params.total_nodes() / 4;
  return params;
}

Row measure(std::uint32_t m, std::uint32_t c) {
  const protocol::Params params = params_for(m, c);
  epoch::EpochConfig config;
  config.epochs = 2;
  config.rounds_per_epoch = 1;
  config.churn_rate = 0.2;

  // Paper-scale committee counts run the PoW search on engine threads;
  // the historical points keep the sequential reference path (protocol
  // numbers are byte-identical either way).
  protocol::EngineOptions options;
  if (m >= 32) options.engine_threads = 4;
  bench::PointProbe probe;
  epoch::EpochManager manager(params, protocol::AdversaryConfig{}, config,
                              options);
  std::vector<net::Counter> phases;
  while (!manager.finished()) {
    bench::add_phase_totals(phases, manager.run_round());
  }

  Row row;
  row.m = m;
  row.c = c;
  row.n = params.total_nodes();
  row.standby = params.standby;
  const auto& handoff = manager.handoffs().front();
  row.joined = handoff.joined.size();
  row.retired = handoff.retired.size();
  row.carried_txs = handoff.carried_txs;
  row.handoff_bytes = handoff.serialize().size();
  row.transition_ms = manager.transition_wall_ms().front();
  row.wall_ms = probe.wall_ms();
  row.payload_bytes = probe.payload_bytes();
  row.phases = std::move(phases);
  return row;
}

void json_rows(support::JsonWriter& json, const std::vector<Row>& rows) {
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.field("m", row.m);
    json.field("c", row.c);
    json.field("n", row.n);
    json.field("standby", row.standby);
    json.field("joined", row.joined);
    json.field("retired", row.retired);
    json.field("carried_txs", row.carried_txs);
    json.field("handoff_bytes", row.handoff_bytes);
    json.field("transition_ms", row.transition_ms);
    json.field("wall_ms", row.wall_ms);
    json.field("payload_bytes", row.payload_bytes);
    bench::write_phase_breakdown(json, row.phases);
    json.end_object();
  }
  json.end_array();
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-4s %-4s %-6s %-8s %-8s %-14s %-14s %-10s\n", "m", "c", "n",
              "joined", "retired", "handoff B", "transition ms", "wall ms");
  for (const auto& row : rows) {
    std::printf("%-4u %-4u %-6u %-8llu %-8llu %-14llu %-14.2f %-10.1f\n",
                row.m, row.c, row.n,
                static_cast<unsigned long long>(row.joined),
                static_cast<unsigned long long>(row.retired),
                static_cast<unsigned long long>(row.handoff_bytes),
                row.transition_ms, row.wall_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::uint32_t> ms = {2, 4, 6, 8};
  const std::vector<std::uint32_t> cs = {6, 9, 12};

  bench::PointProbe total;
  const auto m_rows = support::parallel_sweep(
      ms.size(), [&](std::size_t i) { return measure(ms[i], 9); });
  const auto c_rows = support::parallel_sweep(
      cs.size(), [&](std::size_t i) { return measure(4, cs[i]); });
  const double total_ms = total.wall_ms();

  std::printf("=== Epoch transition: sweep over committee count (c=9) ===\n");
  print_rows(m_rows);
  std::printf("\n=== Sweep over committee size (m=4) ===\n");
  print_rows(c_rows);
  std::printf("\nsweep wall-clock (parallel): %.1f ms\n", total_ms);
  std::printf(
      "\nShape check: the boundary re-draws every role (O(n log n) in the\n"
      "sort-based lotteries) and re-keys membership tickets, the beacon is\n"
      "O(|C_R|^2) shares, and each joining identity pays the PoW puzzle —\n"
      "so transition cost grows with n but stays a small fraction of a\n"
      "round, the paper's argument that per-round reconfiguration is\n"
      "affordable.\n");

  support::JsonWriter json;
  json.begin_object();
  json.field("bench", "epoch_transition");
  json.key("params");
  {
    const protocol::Params base = params_for(2, 6);
    json.begin_object();
    json.field("lambda", base.lambda);
    json.field("referee_size", base.referee_size);
    json.field("txs_per_committee", base.txs_per_committee);
    json.field("epochs", static_cast<std::uint64_t>(2));
    json.field("rounds_per_epoch", static_cast<std::uint64_t>(1));
    json.field("churn_rate", 0.2);
    json.field("sweep_seed", kSweepSeed);
    json.end_object();
  }
  json.key("committee_count_sweep");
  json_rows(json, m_rows);
  json.key("committee_size_sweep");
  json_rows(json, c_rows);
  json.field("sweep_wall_ms", total_ms);
  json.end_object();
  bench::write_artifact("epoch_transition", json, argc, argv);
  return 0;
}
