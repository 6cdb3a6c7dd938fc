// Parallel/sequential equivalence gate for the engine's one pooled
// stage, the selection phase's PoW search (EngineOptions::engine_threads;
// every other stage runs inline): RoundReports, trace files and
// SCENARIOS.json fragments must be byte-identical to the sequential
// reference path for every engine-thread count. The non-vacuity twin sets
// support::stage_order_perturbed(), which reverses the PoW emit order
// and loses one solver's result, and asserts the comparison actually
// goes red, proving the gate can catch a scheduling-dependent merge.
// Reversal alone changes no output: the PoW solutions only register
// their senders, and every one lands inside the selection window.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "obs/observer.hpp"
#include "protocol/engine.hpp"
#include "support/parallel.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {
namespace {

Params fixture_params() {
  Params params;
  params.m = 4;  // multi-committee: every phase fans out over shards
  params.c = 8;
  params.lambda = 2;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.3;
  params.invalid_fraction = 0.1;
  params.seed = 77;
  return params;
}

void serialize_counter(Writer& w, const net::Counter& c) {
  w.u64(c.msgs_sent);
  w.u64(c.bytes_sent);
  w.u64(c.msgs_recv);
  w.u64(c.bytes_recv);
}

Bytes serialize_report(const RoundReport& r) {
  Writer w;
  w.u64(r.round);
  w.u64(r.txs_committed);
  w.u64(r.intra_committed);
  w.u64(r.cross_committed);
  w.u64(r.txs_offered);
  w.u64(r.invalid_rejected);
  w.u64(r.invalid_committed);
  w.boolean(r.block_void);
  w.u64(r.recoveries);
  for (const auto& ev : r.recovery_events) {
    w.u64(ev.round);
    w.u32(ev.committee);
    w.u32(ev.old_leader);
    w.u32(ev.new_leader);
    w.str(ev.witness_kind);
  }
  for (const auto& c : r.committees) {
    w.u32(c.committee);
    w.u64(c.txs_listed);
    w.u64(c.txs_committed);
    w.u64(c.cross_committed);
    w.boolean(c.produced_output);
    w.u64(c.recoveries);
  }
  w.f64(r.round_latency);
  w.f64(r.total_fees);
  serialize_counter(w, r.traffic_total);
  for (const auto& [role, phases] : r.traffic_by_role_phase) {
    net::Counter total;  // the role's whole-round traffic
    for (const auto& counter : phases) total += counter;
    w.u8(static_cast<std::uint8_t>(role));
    serialize_counter(w, total);
  }
  for (const auto& [role, phases] : r.traffic_by_role_phase) {
    w.u8(static_cast<std::uint8_t>(role));
    for (const auto& counter : phases) serialize_counter(w, counter);
  }
  for (const auto& [role, count] : r.role_counts) {
    w.u8(static_cast<std::uint8_t>(role));
    w.u64(count);
  }
  for (const auto& [role, storage] : r.storage_by_role) {
    w.u8(static_cast<std::uint8_t>(role));
    w.f64(storage);
  }
  return w.take();
}

std::vector<Bytes> run_reports(unsigned engine_threads) {
  EngineOptions options;
  options.engine_threads = engine_threads;
  Engine engine(fixture_params(), AdversaryConfig{}, options);
  std::vector<Bytes> streams;
  for (int round = 0; round < 3; ++round) {
    streams.push_back(serialize_report(engine.run_round()));
  }
  return streams;
}

TEST(ParallelEquivalence, RoundReportsByteIdenticalAcrossThreadCounts) {
  const auto sequential = run_reports(1);
  for (unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = run_reports(threads);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential[i], parallel[i])
          << "round " << (i + 1) << " diverged at engine_threads=" << threads;
    }
  }
}

harness::ScenarioSpec fixture_spec() {
  harness::ScenarioSpec spec;
  spec.name = "parallel-equivalence";
  spec.params = fixture_params();
  spec.rounds = 3;
  spec.seeds = {7};
  return spec;
}

// (trace JSON, matrix artifact) of one run at the given thread count.
std::pair<std::string, std::string> harness_artifacts(unsigned engine_threads) {
  harness::ScenarioSpec spec = fixture_spec();
  spec.options.engine_threads = engine_threads;
  obs::Observer observer;
  harness::run_scenario(spec, spec.seeds.front(), &observer);
  const std::vector<harness::ScenarioSpec> scenarios = {spec};
  const harness::MatrixResult result = harness::run_matrix(scenarios, 1);
  return {observer.export_json(), harness::matrix_json(scenarios, result)};
}

TEST(ParallelEquivalence, TraceAndMatrixFragmentByteIdentical) {
  const auto sequential = harness_artifacts(1);
  const auto parallel = harness_artifacts(4);
  EXPECT_EQ(sequential.first, parallel.first) << "trace JSON diverged";
  EXPECT_EQ(sequential.second, parallel.second) << "matrix artifact diverged";
}

TEST(ParallelEquivalence, MergeOrderPerturbationGoesRed) {
  // Non-vacuity twin: if the emit/merge order were scheduling-dependent,
  // the byte-compares above must be able to catch it. Reversing the
  // canonical stage order stands in for such a bug — the reports and
  // artifacts must diverge, or the equivalence gate is vacuous.
  const auto reference = run_reports(4);
  const auto reference_artifacts = harness_artifacts(4);
  support::stage_order_perturbed().store(true);
  const auto perturbed = run_reports(4);
  const auto perturbed_artifacts = harness_artifacts(4);
  support::stage_order_perturbed().store(false);
  EXPECT_NE(reference, perturbed)
      << "reversed emit order left RoundReports unchanged - gate is vacuous";
  EXPECT_NE(reference_artifacts.first, perturbed_artifacts.first)
      << "reversed emit order left the trace unchanged - gate is vacuous";
}

}  // namespace
}  // namespace cyc::protocol
