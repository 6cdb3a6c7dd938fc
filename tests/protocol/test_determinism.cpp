// Determinism regression: same seed => byte-identical RoundReports.
//
// Guards the zero-copy fabric, the verification cache and the batched /
// deferred vote verification: none of them may perturb protocol
// outcomes, message accounting or timing. The fixture serializes every
// observable field of three rounds and compares the streams;
// ReportDigestPinned also pins those streams across commits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.hpp"
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

/// Every observable field of `r`, plus the engine's flow counters and
/// Remaining TX List size after the round.
Bytes serialize_report(const RoundReport& r, const Engine& engine) {
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
    w.boolean(c.severed);
  }
  for (const auto& ev : r.catchup_events) {
    w.u32(ev.node);
    w.u64(ev.round);
    w.u32(ev.attempt);
    w.u64(ev.confirms);
    w.boolean(ev.success);
    w.bytes(crypto::digest_to_bytes(ev.adopted_digest));
  }
  const OpenLoopRoundStats& ol = r.open_loop;
  for (std::uint64_t v : {ol.arrived, ol.admitted, ol.mempool_dropped,
                          ol.exhausted, ol.drained, ol.backlog,
                          ol.source_shortfall}) {
    w.u64(v);
  }
  for (std::size_t v : ol.occupancy) w.u64(v);
  for (double v : ol.latencies) w.f64(v);
  for (std::uint32_t v : ol.latency_shards) w.u32(v);
  const net::FaultStats& f = r.faults;
  for (std::uint64_t v : {f.partition_dropped, f.blackout_dropped, f.lost,
                          f.duplicated, f.reordered}) {
    w.u64(v);
  }
  const RoundFlow& flow = engine.last_flow();
  for (std::uint64_t v : {flow.offered, flow.settled, flow.committed,
                          flow.carried, flow.dropped, flow.foreign}) {
    w.u64(v);
  }
  w.u64(engine.carryover_size());
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
    const RoundReport report = engine.run_round();
    streams.push_back(serialize_report(report, engine));
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
    streams.push_back(serialize_report(report, engine));
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
  const RoundReport a = other.run_round();
  const RoundReport b = reference.run_round();
  EXPECT_NE(serialize_report(a, other), serialize_report(b, reference));
}

// Open-loop fixture: Poisson arrivals into small mempools, loss and
// duplication on the wide-area links, and a node that crashes in round 2
// and catches up from the referees in round 3, so the pinned streams
// carry open-loop, fault and catch-up accounting.
std::vector<Bytes> run_open_loop_fixture(
    std::vector<RoundReport>* reports = nullptr) {
  Params params = fixture_params();
  // 1.2x the nominal capacity of m * txs_per_committee per round; a
  // round is 166 Delta long (the sum of the phase durations).
  params.arrival_rate = 1.2 * params.m * params.txs_per_committee /
                        (166.0 * params.delays.delta);
  params.zipf_s = 1.1;
  params.mempool_cap = 12;
  params.faults = {0.02, 0.01, 0.0};
  Engine engine(params, AdversaryConfig{});
  const net::NodeId victim = 7;
  engine.corrupt(victim, Behavior::kCrash);
  std::vector<Bytes> streams;
  for (int round = 0; round < 4; ++round) {
    if (round == 2) engine.restart(victim);
    const RoundReport report = engine.run_round();
    streams.push_back(serialize_report(report, engine));
    if (reports) reports->push_back(report);
  }
  return streams;
}

std::string digest_of(const std::vector<Bytes>& streams) {
  Writer w;
  for (const Bytes& stream : streams) w.bytes(stream);
  const crypto::Digest d = crypto::sha256(w.out());
  return to_hex(BytesView(d.data(), d.size()));
}

// The report streams above are compared inside one build; these digests
// pin them across commits, so a refactor that moves any reported number
// (including the flow counters and invalid_rejected, which no golden
// trace or bench artifact carries) fails here. A deliberate protocol
// change updates them and says so in CHANGES.md.
TEST(Determinism, ReportDigestPinned) {
  EXPECT_EQ(digest_of(run_fixture()),
            "13e4e0690e208997cd57ba3cca92d47a2360e3b3f4d8f0b0e2e58a2d9e553dea");
  EXPECT_EQ(digest_of(run_adversarial_fixture()),
            "c170375dd6044c05a77861b7d90221b02d15c4db4ef2dd500b761e3ef12a4175");
  std::vector<RoundReport> reports;
  EXPECT_EQ(digest_of(run_open_loop_fixture(&reports)),
            "55767aaef7b3e131a44c0501ec9844a12b36b0e446b8b1cdc2a406282079b737");
  // Non-vacuity: the open-loop fixture reaches what it is meant to pin.
  std::uint64_t lost = 0, mempool_dropped = 0, latencies = 0, adopted = 0;
  for (const RoundReport& r : reports) {
    lost += r.faults.lost;
    mempool_dropped += r.open_loop.mempool_dropped;
    latencies += r.open_loop.latencies.size();
    for (const CatchUpRecord& rec : r.catchup_events) adopted += rec.success;
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(mempool_dropped, 0u);
  EXPECT_GT(latencies, 0u);
  EXPECT_EQ(adopted, 1u);
}

}  // namespace
}  // namespace cyc::protocol
