// Determinism regression: same seed => byte-identical RoundReports.
//
// Guards the zero-copy fabric, the verification cache and the batched /
// deferred vote verification: none of them may perturb protocol
// outcomes, message accounting or timing. The fixture serializes every
// observable field of three rounds and compares the streams.
#include <gtest/gtest.h>

#include <vector>

#include "protocol/engine.hpp"
#include "support/parallel.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {
namespace {

Params fixture_params() {
  Params params;
  params.m = 3;
  params.c = 8;
  params.lambda = 2;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.3;
  params.invalid_fraction = 0.1;
  params.seed = 2026;
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

std::vector<Bytes> run_fixture() {
  Engine engine(fixture_params(), AdversaryConfig{});
  std::vector<Bytes> streams;
  for (int round = 0; round < 3; ++round) {
    streams.push_back(serialize_report(engine.run_round()));
  }
  return streams;
}

// Adversarial fixture: crash + equivocating leaders with recovery
// enabled, so the determinism gate also covers the accusation ->
// impeachment -> prosecution -> re-selection path (Alg. 6) and the
// convicted-leader reputation punishment.
AdversaryConfig adversarial_config() {
  AdversaryConfig adv;
  adv.corrupt_fraction = 0.25;
  adv.forced_corrupt_leader_fraction = 0.67;
  adv.mix = {{Behavior::kCrash, 1.0}, {Behavior::kEquivocator, 1.0}};
  return adv;
}

std::vector<Bytes> run_adversarial_fixture(std::size_t* recoveries = nullptr) {
  Engine engine(fixture_params(), adversarial_config());
  std::vector<Bytes> streams;
  for (int round = 0; round < 3; ++round) {
    const RoundReport report = engine.run_round();
    if (recoveries) *recoveries += report.recoveries;
    streams.push_back(serialize_report(report));
  }
  return streams;
}

TEST(Determinism, SameSeedSameReports) {
  const auto a = run_fixture();
  const auto b = run_fixture();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "round " << (i + 1) << " diverged";
  }
}

TEST(Determinism, UnaffectedByWorkerThread) {
  // The sweep runner executes each engine on an arbitrary pool thread;
  // thread-local caches must not leak into protocol outcomes.
  const auto reference = run_fixture();
  const auto sweeps = support::parallel_sweep(
      4, [&](std::size_t) { return run_fixture(); }, 4);
  for (const auto& streams : sweeps) {
    ASSERT_EQ(streams.size(), reference.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      EXPECT_EQ(streams[i], reference[i]) << "round " << (i + 1);
    }
  }
}

TEST(Determinism, AdversarialRecoveryRunsAreReproducible) {
  std::size_t recoveries_a = 0, recoveries_b = 0;
  const auto a = run_adversarial_fixture(&recoveries_a);
  const auto b = run_adversarial_fixture(&recoveries_b);
  // The fixture must actually exercise the impeachment path, or this
  // gate is no stronger than the honest one.
  EXPECT_GE(recoveries_a, 1u);
  EXPECT_EQ(recoveries_a, recoveries_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "adversarial round " << (i + 1) << " diverged";
  }
}

TEST(Determinism, AdversarialFixtureUnaffectedByWorkerThread) {
  const auto reference = run_adversarial_fixture();
  const auto sweeps = support::parallel_sweep(
      4, [&](std::size_t) { return run_adversarial_fixture(); }, 4);
  for (const auto& streams : sweeps) {
    ASSERT_EQ(streams.size(), reference.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      EXPECT_EQ(streams[i], reference[i]) << "adversarial round " << (i + 1);
    }
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity: the serialization is sensitive enough to notice a change.
  Params params = fixture_params();
  params.seed = 2027;
  Engine other(params, AdversaryConfig{});
  Engine reference(fixture_params(), AdversaryConfig{});
  EXPECT_NE(serialize_report(other.run_round()),
            serialize_report(reference.run_round()));
}

}  // namespace
}  // namespace cyc::protocol
